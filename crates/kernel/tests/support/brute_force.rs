//! The reference driver `MachineRun` is pinned against: advance the
//! machine, deliver the callback, then offer every idle core in core-id
//! order after every event, whether or not any task waits. Shared by the
//! kernel's property suite and the workspace's offer-rule differential.

use faas_kernel::{CoreId, CoreState, Machine, MachineConfig, PolicyCall, Scheduler, TaskSpec};

/// Runs `specs` under `policy` with the brute-force driver and returns the
/// machine in its final state (the policy is left for inspection).
pub fn run_brute_force<P: Scheduler>(
    cfg: MachineConfig,
    specs: Vec<TaskSpec>,
    policy: &mut P,
) -> Machine {
    let mut m = Machine::new(cfg, specs);
    if let Some(every) = policy.tick_interval() {
        m.arm_tick(every);
    }
    loop {
        let call = match m.advance().expect("no deadlock") {
            Some(c) => c,
            None => return m,
        };
        match call {
            PolicyCall::TaskNew(t) => policy.on_task_new(&mut m, t),
            PolicyCall::TaskFinished(t, c) => policy.on_task_finished(&mut m, t, c),
            PolicyCall::SliceExpired(t, c) => policy.on_slice_expired(&mut m, t, c),
            PolicyCall::InterferencePreempt(t, c) => policy.on_interference_preempt(&mut m, t, c),
            PolicyCall::Tick => policy.on_tick(&mut m),
            PolicyCall::Internal => {}
        }
        for i in 0..m.num_cores() {
            let core = CoreId::from_index(i);
            if m.core_state(core) == CoreState::Idle {
                policy.on_core_idle(&mut m, core);
            }
        }
    }
}
