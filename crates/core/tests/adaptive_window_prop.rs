//! Property tests for the adaptive per-shard-pair lookahead planner
//! (`charm_core::lookahead`) against the global-α reference scheme a
//! lockstep engine would use (and the digest hold still does).
//!
//! Two properties carry the whole design:
//!
//! 1. **Dominance** — for any latency matrix whose entries respect the
//!    fabric-wide minimum α and any vector of per-shard pending times, the
//!    adaptive horizon granted to every shard is at least the global-α
//!    horizon. The adaptive engine can only run *ahead* of lockstep,
//!    never behind it, so elision is a pure win.
//! 2. **Safety** — no causal chain of messages (relayed through any
//!    sequence of shards, each hop at least the pairwise latency floor)
//!    can arrive below the horizon granted to its destination. Events the
//!    engine admits under the horizon are final.
//!
//! Both are checked over hundreds of randomized matrices and send
//! schedules (seeded SplitMix64 — failures reproduce), plus the real
//! fabric models for the flat-crossbar and torus cases.

use charm_core::lookahead::{close, global_horizon, horizon, pair_matrix, plan_bounds};
use charm_machine::{NetworkModel, NetworkParams};

/// Deterministic test PRNG (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A random pairwise latency-floor matrix: `k` shards, every off-diagonal
/// entry in `[win, 8*win]` (the engine's `pair_matrix` clamps entries to
/// the global minimum, so `>= win` is an invariant, not an assumption),
/// diagonal left at `MAX` for `close` to fill with round trips.
fn random_matrix(rng: &mut Rng, k: usize, win: u64) -> Vec<Vec<u64>> {
    let mut m = vec![vec![u64::MAX; k]; k];
    for (a, row) in m.iter_mut().enumerate() {
        for (b, cell) in row.iter_mut().enumerate() {
            if a != b {
                *cell = rng.range(win, win * 8);
            }
        }
    }
    m
}

/// Random pending vector: mostly finite times, with idle (`MAX`) shards
/// mixed in so the tests cover partially drained systems.
fn random_pending(rng: &mut Rng, k: usize, win: u64) -> Vec<u64> {
    (0..k)
        .map(|_| {
            if rng.next().is_multiple_of(5) {
                u64::MAX
            } else {
                rng.range(0, win * 64)
            }
        })
        .collect()
}

#[test]
fn adaptive_horizon_dominates_global_alpha() {
    let mut rng = Rng(0xADA9_717E);
    for trial in 0..400 {
        let k = 2 + (rng.next() as usize % 7);
        let win = rng.range(40, 5_000);
        let dist = close(random_matrix(&mut rng, k, win));
        let pend = random_pending(&mut rng, k, win);
        let g = global_horizon(&pend, win);
        for s in 0..k {
            let b = horizon(&dist, &pend, s);
            assert!(
                b >= g,
                "trial {trial}: shard {s} adaptive horizon {b} < global-α {g} \
                 (win={win}, pending={pend:?})"
            );
        }
        if pend.iter().all(|&p| p == u64::MAX) {
            assert_eq!(g, u64::MAX, "all-idle system must grant unbounded horizons");
        }
    }
}

#[test]
fn adaptive_horizon_never_unsafe() {
    let mut rng = Rng(0x5AFE_0001);
    for trial in 0..400 {
        let k = 2 + (rng.next() as usize % 7);
        let win = rng.range(40, 5_000);
        let raw = random_matrix(&mut rng, k, win);
        let dist = close(raw.clone());
        let pend = random_pending(&mut rng, k, win);

        // Simulate random causal chains: a shard's next pending event
        // fires, sends a message (each hop pays at least the pairwise
        // floor plus arbitrary extra latency and think time), possibly
        // relayed through other shards. The arrival at the destination
        // must never undercut the destination's granted horizon.
        for _ in 0..32 {
            let src = (rng.next() as usize) % k;
            if pend[src] == u64::MAX {
                continue; // idle shards originate nothing
            }
            let mut at = pend[src];
            let mut here = src;
            let hops = 1 + rng.next() as usize % 3;
            for _ in 0..hops {
                let mut next = (rng.next() as usize) % k;
                if next == here {
                    next = (next + 1) % k;
                }
                // floor + jitter/serialization extra + relay think time
                at = at + raw[here][next] + rng.range(0, win * 4);
                here = next;
            }
            let b = horizon(&dist, &pend, here);
            assert!(
                at >= b,
                "trial {trial}: chain {src}->..->{here} arrives at {at}, below \
                 shard {here}'s horizon {b} — unsafe grant (pending={pend:?})"
            );
        }
    }
}

#[test]
fn closure_tightens_without_breaking_the_alpha_floor() {
    let mut rng = Rng(0xC1_050E);
    for _ in 0..200 {
        let k = 2 + (rng.next() as usize % 7);
        let win = rng.range(40, 5_000);
        let raw = random_matrix(&mut rng, k, win);
        let dist = close(raw.clone());
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    assert!(
                        dist[a][b] <= raw[a][b],
                        "closure may only tighten an off-diagonal entry"
                    );
                }
                assert!(
                    dist[a][b] >= win,
                    "closed entry [{a}][{b}]={} fell below the α floor {win}",
                    dist[a][b]
                );
            }
            // Diagonal = min round trip: at least two α hops.
            assert!(dist[a][a] >= 2 * win, "round trip below 2α");
        }
    }
}

/// The same dominance property, but with the latency matrix produced by
/// the real planner over real fabric models instead of a synthetic one.
#[test]
fn planner_on_real_fabrics_dominates_global_alpha() {
    let fabrics: Vec<(&str, NetworkParams, usize)> = vec![
        ("infiniband", NetworkParams::infiniband(), 16),
        ("gemini_4x4x2", NetworkParams::gemini_torus(vec![4, 4, 2]), 32),
        ("ethernet", NetworkParams::ethernet_1g(), 8),
    ];
    let mut rng = Rng(0xFAB1);
    for (name, params, n) in fabrics {
        let net = NetworkModel::new(params, 42);
        let win = net.min_remote_delay().0.max(1);
        for shards in [2usize, 4] {
            let bounds = plan_bounds(n, shards, &net);
            let dist = close(pair_matrix(&net, &bounds));
            for (a, row) in dist.iter().enumerate() {
                for (b, &d) in row.iter().enumerate() {
                    assert!(
                        d >= win,
                        "{name}: dist[{a}][{b}]={d} below fabric α {win}"
                    );
                }
            }
            for _ in 0..100 {
                let pend = random_pending(&mut rng, bounds.len(), win);
                let g = global_horizon(&pend, win);
                for s in 0..bounds.len() {
                    assert!(
                        horizon(&dist, &pend, s) >= g,
                        "{name}/{shards} shards: adaptive horizon under global-α"
                    );
                }
            }
        }
    }
}

#[test]
fn shard_plans_cover_the_machine_and_respect_topology() {
    let flat = NetworkModel::new(NetworkParams::infiniband(), 7);
    for n in [1usize, 3, 8, 17, 64] {
        for shards in [1usize, 2, 4, 8] {
            let bounds = plan_bounds(n, shards, &flat);
            assert_eq!(bounds.first().map(|&(lo, _)| lo), Some(0));
            assert_eq!(bounds.last().map(|&(_, hi)| hi), Some(n));
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "shard bounds must be contiguous");
            }
            assert!(bounds.iter().all(|&(lo, hi)| lo <= hi));
        }
    }

    // On a torus whose rows tile the machine, interior cuts snap to row
    // boundaries so the nearest cross-shard pair is a full row apart.
    let torus = NetworkModel::new(NetworkParams::gemini_torus(vec![4, 4, 2]), 7);
    let bounds = plan_bounds(32, 4, &torus);
    for &(lo, hi) in &bounds {
        assert_eq!(lo % 4, 0, "torus shard cut {lo} not row-aligned");
        assert!(hi % 4 == 0 || hi == 32, "torus shard cut {hi} not row-aligned");
    }
}
