/**
 * @file
 * Internal registration hooks for the built-in schedule plugins.
 *
 * Each built-in schedule file defines its hook and registers its
 * plugins (ScheduleInfo + factory) there, so a schedule's metadata
 * lives next to its implementation. The registry constructor calls the
 * hooks in the paper's figure order, which both fixes the default
 * ordering of schedule axes and — because the calls reference a symbol
 * in every plugin file — keeps those translation units from being
 * dropped when the core library is linked as a static archive.
 *
 * Not installed as public API: out-of-tree plugins use
 * ScheduleRegistry::registerSchedule() / ScheduleRegistrar instead.
 */
#ifndef FSMOE_CORE_SCHEDULES_BUILTINS_H
#define FSMOE_CORE_SCHEDULES_BUILTINS_H

namespace fsmoe::core {

class ScheduleRegistry;

namespace detail {

void registerTutelSchedules(ScheduleRegistry &registry);
void registerLinaSchedules(ScheduleRegistry &registry);
void registerFsMoeSchedules(ScheduleRegistry &registry);

} // namespace detail

} // namespace fsmoe::core

#endif // FSMOE_CORE_SCHEDULES_BUILTINS_H
