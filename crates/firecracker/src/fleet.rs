//! Expanding admitted microVMs into schedulable thread groups and
//! aggregating per-VM results (§VI-E).
//!
//! Each launched VM contributes one *vCPU* task (guest boot + the function
//! work) and `aux_threads` auxiliary tasks (VMM/API/I/O threads). All of a
//! VM's tasks share a `group` tag so results can be re-aggregated per VM.
//! "We schedule all these threads under our custom ghOSt policies."

use azure_trace::Invocation;
use faas_kernel::{PlacementHint, Task, TaskSpec};
use faas_metrics::TaskRecord;
use faas_simcore::SimTime;

use crate::plan::{FirecrackerConfig, LaunchOutcome, LaunchPlan};

/// Group tag of VM `i` (0 is reserved for non-VM tasks).
fn group_of_vm(vm_index: usize) -> u64 {
    vm_index as u64 + 1
}

/// Expands a launch plan into kernel task specs (failed launches produce
/// no tasks). Returns the specs and, per spec, the VM index it belongs to.
pub fn expand_to_specs(plan: &LaunchPlan, cfg: &FirecrackerConfig) -> (Vec<TaskSpec>, Vec<usize>) {
    let mut specs = Vec::new();
    let mut owner = Vec::new();
    for (i, vm) in plan.vms().iter().enumerate() {
        if vm.outcome != LaunchOutcome::Launched {
            continue;
        }
        let inv: &Invocation = &vm.invocation;
        // vCPU thread: boot the guest kernel, then run the function (with
        // the guest-kernel work inflation).
        let work = cfg.guest_work(inv.duration) + cfg.boot_work(i);
        let vcpu = TaskSpec::function(inv.arrival, work, inv.mem_mib)
            .with_expected(work)
            .with_group(group_of_vm(i));
        specs.push(vcpu);
        owner.push(i);
        // Auxiliary VMM/I-O threads, optionally hinted as background work
        // for hint-aware schedulers (§VII-4).
        let aux_hint = if cfg.aux_background {
            PlacementHint::Background
        } else {
            PlacementHint::Auto
        };
        for _ in 0..cfg.aux_threads {
            specs.push(
                TaskSpec::function(inv.arrival, cfg.aux_work, inv.mem_mib)
                    .with_expected(cfg.aux_work)
                    .with_group(group_of_vm(i))
                    .with_hint(aux_hint),
            );
            owner.push(i);
        }
    }
    (specs, owner)
}

/// Aggregates finished kernel tasks back into one [`TaskRecord`] per VM.
///
/// The VM "arrives" with the invocation and first runs when any of its
/// threads runs; its *completion* is the completion of the vCPU thread
/// (the group's largest-work task) — that is when the function returns
/// and billing stops. VMM/I-O threads contribute CPU time and preemption
/// counts but their teardown does not extend the billable duration.
///
/// Tasks of VMs whose vCPU never finished are skipped.
pub fn vm_records(plan: &LaunchPlan, tasks: &[Task]) -> Vec<TaskRecord> {
    use std::collections::HashMap;
    struct Acc {
        arrival: SimTime,
        first_run: Option<SimTime>,
        vcpu_completion: Option<SimTime>,
        vcpu_work: faas_simcore::SimDuration,
        cpu: faas_simcore::SimDuration,
        preemptions: u32,
        mem: u32,
    }
    let mut per_vm: HashMap<u64, Acc> = HashMap::new();
    for t in tasks {
        let g = t.spec().group;
        if g == 0 {
            continue;
        }
        let vm = &plan.vms()[(g - 1) as usize];
        let acc = per_vm.entry(g).or_insert_with(|| Acc {
            arrival: vm.invocation.arrival,
            first_run: None,
            vcpu_completion: None,
            vcpu_work: faas_simcore::SimDuration::ZERO,
            cpu: faas_simcore::SimDuration::ZERO,
            preemptions: 0,
            mem: vm.invocation.mem_mib,
        });
        if let Some(fr) = t.first_run() {
            acc.first_run = Some(acc.first_run.map_or(fr, |x| x.min(fr)));
        }
        // The vCPU thread is the group's largest-work task.
        if t.spec().work > acc.vcpu_work {
            acc.vcpu_work = t.spec().work;
            acc.vcpu_completion = t.completion();
        }
        acc.cpu += t.cpu_time();
        acc.preemptions += t.preemptions();
    }
    let mut out: Vec<(u64, TaskRecord)> = per_vm
        .into_iter()
        .filter_map(|(g, acc)| {
            Some((
                g,
                TaskRecord {
                    arrival: acc.arrival,
                    first_run: acc.first_run?,
                    completion: acc.vcpu_completion?,
                    cpu_time: acc.cpu,
                    preemptions: acc.preemptions,
                    mem_mib: acc.mem,
                },
            ))
        })
        .collect();
    out.sort_by_key(|(g, _)| *g);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{CostModel, MachineConfig, Simulation};
    use faas_policies::Fifo;
    use faas_simcore::SimDuration;

    fn plan_of(n: usize) -> LaunchPlan {
        let invs: Vec<Invocation> = (0..n)
            .map(|i| Invocation {
                arrival: SimTime::from_millis(i as u64 * 10),
                fib_n: 36,
                duration: SimDuration::from_millis(100),
                mem_mib: 128,
            })
            .collect();
        LaunchPlan::admit(&invs, &FirecrackerConfig::default())
    }

    #[test]
    fn expansion_counts_threads() {
        let cfg = FirecrackerConfig::default();
        let plan = plan_of(5);
        let (specs, owner) = expand_to_specs(&plan, &cfg);
        assert_eq!(specs.len(), 5 * (1 + cfg.aux_threads));
        assert_eq!(owner.len(), specs.len());
        // Group tags link threads to VMs.
        for (spec, vm) in specs.iter().zip(&owner) {
            assert_eq!(spec.group, *vm as u64 + 1);
        }
    }

    #[test]
    fn failed_launches_produce_no_tasks() {
        let cfg = FirecrackerConfig {
            host_mem_mib: 200,
            vmm_overhead_mib: 0,
            ..Default::default()
        };
        let invs: Vec<Invocation> = (0..3)
            .map(|_| Invocation {
                arrival: SimTime::ZERO,
                fib_n: 36,
                duration: SimDuration::from_secs(60),
                mem_mib: 128,
            })
            .collect();
        let plan = LaunchPlan::admit(&invs, &cfg);
        assert_eq!(plan.failed(), 2);
        let (specs, _) = expand_to_specs(&plan, &cfg);
        assert_eq!(specs.len(), 1 + cfg.aux_threads);
    }

    #[test]
    fn snapshot_restore_reduces_boot_work() {
        use crate::plan::BootKind;
        let full = FirecrackerConfig::default();
        let snap = FirecrackerConfig {
            boot_kind: BootKind::Snapshot {
                restore_cpu: SimDuration::from_millis(8),
                hit_rate: 1.0,
            },
            ..full
        };
        let plan = plan_of(4);
        let (full_specs, _) = expand_to_specs(&plan, &full);
        let (snap_specs, _) = expand_to_specs(&plan, &snap);
        let work = |specs: &[faas_kernel::TaskSpec]| -> u64 {
            specs.iter().map(|s| s.work.as_micros()).sum()
        };
        assert!(
            work(&full_specs) > work(&snap_specs),
            "100% snapshot hits must shrink total boot work"
        );
        // Partial hit rate lands in between and is deterministic.
        let half = FirecrackerConfig {
            boot_kind: BootKind::Snapshot {
                restore_cpu: SimDuration::from_millis(8),
                hit_rate: 0.5,
            },
            ..full
        };
        let (a, _) = expand_to_specs(&plan, &half);
        let (b, _) = expand_to_specs(&plan, &half);
        assert_eq!(work(&a), work(&b), "hit pattern is deterministic");
        assert!(work(&a) < work(&full_specs));
        assert!(work(&a) > work(&snap_specs));
    }

    #[test]
    fn aux_background_hint_tagging() {
        let plain = FirecrackerConfig::default();
        let hinted = FirecrackerConfig {
            aux_background: true,
            ..plain
        };
        let plan = plan_of(2);
        let (specs, _) = expand_to_specs(&plan, &hinted);
        let backgrounds = specs
            .iter()
            .filter(|s| s.hint == PlacementHint::Background)
            .count();
        assert_eq!(
            backgrounds,
            2 * hinted.aux_threads,
            "every aux thread is hinted"
        );
        let (specs, _) = expand_to_specs(&plan, &plain);
        assert!(specs.iter().all(|s| s.hint == PlacementHint::Auto));
    }

    #[test]
    fn vm_records_aggregate_thread_groups() {
        let cfg = FirecrackerConfig::default();
        let plan = plan_of(3);
        let (specs, _) = expand_to_specs(&plan, &cfg);
        let report = Simulation::new(
            MachineConfig::new(4).with_cost(CostModel::free()),
            specs,
            Fifo::new(),
        )
        .run_slim()
        .unwrap();
        let records = vm_records(&plan, &report.tasks);
        assert_eq!(records.len(), 3);
        for (r, vm) in records.iter().zip(plan.vms()) {
            assert_eq!(r.arrival, vm.invocation.arrival);
            // vCPU work = boot + 100 ms; aux threads add 2 × 5 ms
            // (BootKind::Full, so every launch pays boot_cpu).
            assert_eq!(
                r.cpu_time,
                vm.invocation.duration + cfg.boot_cpu + cfg.aux_work * cfg.aux_threads as u64
            );
            assert!(r.completion >= r.first_run);
            // Billing stops when the vCPU thread (largest work) returns.
            assert!(r.execution_time() >= vm.invocation.duration);
        }
    }
}
