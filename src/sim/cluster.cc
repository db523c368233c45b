#include "sim/cluster.h"

namespace fsmoe::sim {

ClusterSpec
testbedA()
{
    ClusterSpec spec;
    spec.name = "Testbed-A (6x8 A6000, 200Gb/s IB)";
    spec.numNodes = 6;
    spec.gpusPerNode = 8;
    spec.gemm = {4.26e-2, 2.29e-11};
    spec.alltoall = {2.87e-1, 2.21e-7};
    spec.allgather = {3.37e-1, 2.32e-7}; // caption 2.32e-6: docs/SCHEDULES.md
    spec.reducescatter = {3.95e-1, 2.34e-7};
    spec.allreduce = {5.11e-1, 4.95e-7}; // caption 4.95e-6: docs/SCHEDULES.md
    return spec;
}

ClusterSpec
testbedB()
{
    ClusterSpec spec;
    spec.name = "Testbed-B (8x4 RTX2080Ti, 100Gb/s IB)";
    spec.numNodes = 8;
    spec.gpusPerNode = 4;
    spec.gemm = {9.24e-2, 4.42e-11};
    spec.alltoall = {1.75e-1, 3.06e-7};
    spec.allgather = {3.20e-2, 1.68e-7};
    spec.reducescatter = {3.91e-2, 1.67e-7};
    spec.allreduce = {8.37e-2, 5.99e-7};
    return spec;
}

} // namespace fsmoe::sim
