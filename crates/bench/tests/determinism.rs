//! Determinism pins for the heavy-policy figures.
//!
//! Seven byte-identical-output contracts are pinned here permanently:
//!
//! * PR 4 swapped the simulation's two hottest data structures (the event
//!   queue and the CFS run queues) for index-addressed dense equivalents.
//!   The fig11/fig12 digests were captured from the tree **before** that
//!   swap: any ordering change in the kernel event loop or the run-queue
//!   picks shows up as a digest mismatch.
//! * The global-queue policies were later folded into one `Fifo` type and
//!   the hybrid's CFS group onto the same run-queue type as `Cfs`. The
//!   fig23 digest (every scheduler in the zoo) and the fig18 digest
//!   (rightsizing, which adds and removes CFS cores and rebalances) were
//!   captured from the tree before that merge.
//! * The front-end fold was later rewritten as one ordered sequence of
//!   stages. The `overload`, `crash-storm`, `straggler-outliers` and
//!   `retry-backoff` digests (middleware, chaos and health layers) were
//!   captured from the tree before that rewrite.
//! * A lone CFS slice was later renewed inside the run queue instead of
//!   through `MachineRun`'s idle-core offers, and streaming machines were
//!   advanced in place instead of being moved through the fan. The
//!   `cluster-xl-512` digest (512 streamed hybrid nodes at
//!   `SCALE_DIV=4096`, where most kernel events are such expiries) was
//!   captured from the tree before both.
//! * A machine run was later reduced to one report type (`SlimReport`),
//!   dropping the report that kept the whole `Machine`. The fig14 digest
//!   (the one scenario that read that machine's utilization ledger) and
//!   the fig21 digest (the microVM fleet) were captured from the tree
//!   before that change.
//! * The front end's layers were later made always present, each with
//!   one off-state, instead of optional. The `cluster01` digest (five
//!   dispatch policies with no overload, chaos or health layer), the
//!   `brownout` digest (the overload stack alone, streaming) and the
//!   `autoscale` digest (scale-ups and scale-downs without a health
//!   config, at `SCALE_DIV=8`: at 40 it never scales) were captured from
//!   the tree before that change.
//! * The kernel's slice timers and ticks later moved from the event
//!   queue's heap into FIFO delay lanes. The `table1` digest (FIFO, CFS
//!   and the hybrid on the paper's enclave) was captured from the tree
//!   before that change.
//!
//! The same output must also be byte-identical at any `BENCH_THREADS`
//! setting (the sweep fan-out must not affect results).
//!
//! The digests cover downscaled runs (`SCALE_DIV=40`, 8 for the
//! autoscaler and 4096 for the hour-long fleet) so the test stays fast.
//! Everything in the pipeline is deterministic integer/float arithmetic
//! with deterministic formatting, so the digests are stable across
//! machines.

use faas_bench::scenario;

/// FNV-1a 64-bit, enough to pin byte identity without external crates.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_scenario(id: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    scenario::find(id)
        .unwrap_or_else(|| panic!("{id} registered"))
        .run_to(&mut buf, &[])
        .unwrap_or_else(|e| panic!("{id} failed: {e}"));
    buf
}

/// One test (not several) because it owns process-wide environment
/// variables; splitting it would race the `SCALE_DIV`/`BENCH_THREADS`
/// settings across the harness's test threads.
#[test]
fn fig11_fig12_bytes_pinned_to_pre_swap_and_thread_invariant() {
    std::env::set_var("SCALE_DIV", "40");
    std::env::set_var("BENCH_THREADS", "1");

    let fig11_t1 = run_scenario("fig11");
    let fig12_t1 = run_scenario("fig12");

    // Digests recorded from the pre-swap tree (BinaryHeap event queue,
    // BTreeSet runqueues) at SCALE_DIV=40.
    assert_eq!(
        fnv1a(&fig11_t1),
        0x3e3e_b45f_7797_a5a3,
        "fig11 output changed vs. the pre-swap baseline"
    );
    assert_eq!(
        fnv1a(&fig12_t1),
        0xedc3_a6b9_8a34_4406,
        "fig12 output changed vs. the pre-swap baseline"
    );

    // Digests recorded from the tree before the policy-layer merge
    // (separate round-robin/limit/Shinjuku types, a hybrid-private copy
    // of the CFS run queues) at SCALE_DIV=40.
    assert_eq!(
        fnv1a(&run_scenario("fig23")),
        0x967e_ff30_5c12_2e4f,
        "fig23 output changed vs. the pre-merge baseline"
    );
    assert_eq!(
        fnv1a(&run_scenario("fig18")),
        0x7b10_ec83_dfe3_439b,
        "fig18 output changed vs. the pre-merge baseline"
    );

    // Digests recorded from the tree before the front-end fold was
    // staged (separate primary and hedge-copy booking, two machine
    // resets, an optional fault layer) at SCALE_DIV=40. Together they
    // cover timeouts, crashes and retries, breaker trips, hedges with
    // straggled tasks, and backoff with ejections.
    for (id, digest) in [
        ("overload", 0x8613_afbb_4aea_24d5),
        ("crash-storm", 0xaa84_4d8e_6a03_9ce1),
        ("straggler-outliers", 0xb3e8_5a43_6780_8e18),
        ("retry-backoff", 0xbba2_809e_1268_1370),
    ] {
        assert_eq!(
            fnv1a(&run_scenario(id)),
            digest,
            "{id} output changed vs. the pre-staging baseline"
        );
    }

    // Digests recorded from the tree before a machine run had one report
    // type: fig14 read the utilization ledger of the machine its report
    // kept, and fig21 ran its microVM fleet through that report.
    assert_eq!(
        fnv1a(&run_scenario("fig14")),
        0x6ffa_cc39_ca60_0998,
        "fig14 output changed vs. the two-report baseline"
    );
    assert_eq!(
        fnv1a(&run_scenario("fig21")),
        0x9693_cea0_f94b_a19c,
        "fig21 output changed vs. the two-report baseline"
    );

    // Digests recorded from the tree before the front end's layers were
    // always present: runs with every layer, or all but the overload
    // stack, switched off.
    assert_eq!(
        fnv1a(&run_scenario("cluster01")),
        0x9a55_af7d_88f4_ef4d,
        "cluster01 output changed vs. the optional-layer baseline"
    );
    assert_eq!(
        fnv1a(&run_scenario("brownout")),
        0x71e8_4225_2092_af7d,
        "brownout output changed vs. the optional-layer baseline"
    );

    // Digest recorded from the tree before the kernel's slice timers and
    // ticks moved into the event queue's delay lanes: the paper's Table I,
    // the shape the benchmark's enclave runs at full scale.
    assert_eq!(
        fnv1a(&run_scenario("table1")),
        0x3328_f8a2_3da5_5b28,
        "table1 output changed vs. the all-heap baseline"
    );
    std::env::set_var("SCALE_DIV", "8");
    assert_eq!(
        fnv1a(&run_scenario("autoscale")),
        0xc0af_e0ae_b5a3_40b4,
        "autoscale output changed vs. the optional-layer baseline"
    );

    // Digest recorded from the tree before a lone CFS slice was renewed
    // inside the run queue (every expiry went through `MachineRun`'s
    // idle-core offers) and before streaming machines were advanced in
    // place. This is the provider-scale streaming shape: 512 hybrid
    // nodes, one of them loaded, its long tasks mostly alone on their
    // CFS cores.
    std::env::set_var("SCALE_DIV", "4096");
    let xl_t1 = run_scenario("cluster-xl-512");
    assert_eq!(
        fnv1a(&xl_t1),
        0x4552_14be_de7c_abe6,
        "cluster-xl-512 output changed vs. the pre-renewal baseline"
    );

    // Thread invariance: the parallel sweep runner must not change bytes.
    std::env::set_var("BENCH_THREADS", "4");
    let xl_t4 = run_scenario("cluster-xl-512");
    std::env::set_var("SCALE_DIV", "40");
    let fig11_t4 = run_scenario("fig11");
    let fig12_t4 = run_scenario("fig12");
    std::env::set_var("BENCH_THREADS", "1");
    assert_eq!(fig11_t1, fig11_t4, "fig11 differs across BENCH_THREADS");
    assert_eq!(fig12_t1, fig12_t4, "fig12 differs across BENCH_THREADS");
    assert_eq!(xl_t1, xl_t4, "cluster-xl-512 differs across BENCH_THREADS");
}
