#include "base/fp_contract.h"

namespace fsmoe {

double
multiplyAdd(double x, double y, double z)
{
    volatile double vx = x;
    volatile double vy = y;
    volatile double vz = z;
    return vx * vy + vz;
}

} // namespace fsmoe
