//! The fluid flow model's rate solver.
//!
//! Instead of stepping every flow once per RTT ([`crate::tcp`]'s round
//! model), the fluid model treats each active flow as a constant-rate pipe
//! and recomputes rates only when the flow set changes (start, completion,
//! cancellation, churn, capacity change). Rates come from **progressive
//! filling**: the classic max–min fair water-filling over the directed
//! links of the network, extended with a per-flow rate ceiling that folds
//! loss and window limits in (Mathis-style), so the allocation stays close
//! to what the round model converges to.
//!
//! The solver is a plain function over flat arrays — no allocation on the
//! steady path (scratch buffers are reused between rebalances) and fully
//! deterministic: flows are processed in slot order and all floating-point
//! reductions are sequential.
//!
//! [`FillProblem::ceilings_are_exact`] is the guard of the simulator's
//! local re-solve: it proves, from the ceilings and capacities alone, that
//! a fill would hand every flow its own ceiling bit for bit, so a flow-set
//! change can be applied by updating only the flows it touches. DESIGN.md
//! ("Local re-solve") has the argument.

/// Relative slack below which a link is considered saturated and a flow is
/// considered to have reached its ceiling.
const REL_EPS: f64 = 1e-9;

/// Relative headroom every crossed link must keep below its capacity for
/// the exactness guard: far above the rounding error of the fill's running
/// `remaining`, so no link share can become the fill's minimum.
const LINK_HEADROOM: f64 = 1e-6;

/// Whether a crossed link whose ceilings sum to `sum` can never bind in a
/// fill (the guard's link condition).
pub(crate) fn link_has_headroom(sum: f64, capacity: f64) -> bool {
    capacity >= 1.0 && sum <= capacity * (1.0 - LINK_HEADROOM)
}

/// Whether ceiling `hi` would freeze at the level of the smaller distinct
/// ceiling `lo` (the fill's `capped` test with `level = lo`).
fn near_tie(lo: u64, hi: u64) -> bool {
    f64::from_bits(lo) >= f64::from_bits(hi) * (1.0 - REL_EPS)
}

/// The sorted multiset of one pass's flow ceilings, kept as bit patterns
/// (which sort like the values for positive floats). Every change reports
/// whether the distinct neighbours it leaves adjacent are free of
/// near-ties, so the guard's tie condition is maintained in O(log n) search
/// plus a short shift per change instead of a re-sort.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct CeilingSet {
    bits: Vec<u64>,
}

impl CeilingSet {
    /// Replaces the contents; returns whether no two distinct ceilings are
    /// near-tied.
    pub fn rebuild(&mut self, ceilings: impl Iterator<Item = f64>) -> bool {
        self.bits.clear();
        self.bits.extend(ceilings.map(f64::to_bits));
        self.bits.sort_unstable();
        self.bits
            .windows(2)
            .all(|w| w[0] == w[1] || !near_tie(w[0], w[1]))
    }

    /// Adds one ceiling; returns whether it is not near-tied with its
    /// distinct neighbours.
    pub fn insert(&mut self, ceiling: f64) -> bool {
        let b = ceiling.to_bits();
        let at = self.bits.partition_point(|&x| x < b);
        let duplicate = self.bits.get(at) == Some(&b);
        self.bits.insert(at, b);
        let below = at.checked_sub(1).map(|i| self.bits[i]);
        let above = self.bits.get(at + 1).copied();
        duplicate
            || !below.is_some_and(|lo| near_tie(lo, b)) && !above.is_some_and(|hi| near_tie(b, hi))
    }

    /// Removes one occurrence of a ceiling; returns whether the distinct
    /// neighbours it leaves adjacent are not near-tied.
    pub fn remove(&mut self, ceiling: f64) -> bool {
        let b = ceiling.to_bits();
        let at = self.bits.partition_point(|&x| x < b);
        debug_assert_eq!(self.bits.get(at), Some(&b), "ceiling missing from its set");
        self.bits.remove(at);
        if self.bits.get(at) == Some(&b) {
            return true;
        }
        match (at.checked_sub(1).map(|i| self.bits[i]), self.bits.get(at)) {
            (Some(lo), Some(&hi)) => !near_tie(lo, hi),
            _ => true,
        }
    }

    /// Swaps one ceiling for another (`old` NaN: nothing to remove);
    /// returns whether both changes left no near-tie.
    pub fn replace(&mut self, old: f64, new: f64) -> bool {
        let left = old.is_nan() || self.remove(old);
        self.insert(new) && left
    }

    /// Whether every ceiling is positive, finite and at most twice the
    /// smallest (vacuously true when empty).
    pub fn spread_ok(&self) -> bool {
        let (Some(&lo), Some(&hi)) = (self.bits.first(), self.bits.last()) else {
            return true;
        };
        let (lo, hi) = (f64::from_bits(lo), f64::from_bits(hi));
        lo > 0.0 && lo <= hi && hi <= 2.0 * lo && hi.is_finite()
    }
}

/// One flow as the solver sees it: the directed links it crosses (indices
/// into the capacity array) and its intrinsic rate ceiling in bits/sec.
#[derive(Debug, Clone)]
pub(crate) struct FillFlow {
    /// Offsets into [`FillProblem::path_links`].
    pub path_start: u32,
    pub path_len: u32,
    /// Per-flow ceiling (Mathis / window limit), bits per second.
    pub cap_bps: f64,
}

/// Scratch-buffer bundle for [`progressive_fill`]; reuse one instance
/// across rebalances to keep the steady path allocation-free.
#[derive(Debug, Default)]
pub(crate) struct FillProblem {
    /// Flows, in deterministic (slot) order.
    pub flows: Vec<FillFlow>,
    /// Concatenated directed-link indices of every flow's path.
    pub path_links: Vec<u32>,
    /// Capacity of each directed link, bits per second. Kept across
    /// [`FillProblem::reset`]; the owner refreshes an entry when a link's
    /// capacity changes.
    pub link_capacity: Vec<f64>,
    /// Output: the max–min fair rate of each flow, bits per second.
    pub rates: Vec<f64>,
    /// Output: aggregate assigned rate per directed link, bits per second.
    pub link_rate: Vec<f64>,
    /// Output of [`FillProblem::ceilings_are_exact`]: the flows' ceilings
    /// summed per directed link, in flow order.
    pub ceiling_sum: Vec<f64>,
    // Internal scratch.
    remaining: Vec<f64>,
    count: Vec<u32>,
    frozen: Vec<bool>,
    /// Directed links actually crossed by some flow (count > 0 at start);
    /// iteration sticks to these instead of every link in the network.
    active_links: Vec<u32>,
}

impl FillProblem {
    /// Clears the flow set, keeping buffers and link capacities (links
    /// beyond the current count start at capacity 0). Call before
    /// re-describing the problem for a new rebalance.
    pub fn reset(&mut self, dir_link_count: usize) {
        self.flows.clear();
        self.path_links.clear();
        self.link_capacity.resize(dir_link_count, 0.0);
    }

    /// Whether the last fill handed every flow exactly its ceiling.
    pub fn rates_are_ceilings(&self) -> bool {
        self.rates
            .iter()
            .zip(&self.flows)
            .all(|(r, f)| r.to_bits() == f.cap_bps.to_bits())
    }

    /// The local re-solve's guard: whether [`FillProblem::progressive_fill`]
    /// provably returns every flow's ceiling bit for bit, so each link's
    /// rate is the flow-order sum of its flows' ceilings. It holds when
    ///
    /// 1. every crossed link keeps [`LINK_HEADROOM`]: its ceilings sum to at
    ///    most `capacity × (1 − 1e-6)`, so no link share is ever the fill's
    ///    smallest step;
    /// 2. every ceiling is positive, finite and within 2× of the smallest,
    ///    so by Sterbenz each level step `level + (c − level)` lands
    ///    exactly on `c`;
    /// 3. no two distinct ceilings are within `REL_EPS` of each other, so
    ///    no flow freezes at a neighbour's level.
    ///
    /// Leaves the per-link sums in [`FillProblem::ceiling_sum`]; rebuilds
    /// `set` from the ceilings when the link condition holds.
    pub fn ceilings_are_exact(&mut self, set: &mut CeilingSet) -> bool {
        self.ceiling_sum.clear();
        self.ceiling_sum.resize(self.link_capacity.len(), 0.0);
        for f in &self.flows {
            let path =
                &self.path_links[f.path_start as usize..(f.path_start + f.path_len) as usize];
            for &l in path {
                self.ceiling_sum[l as usize] += f.cap_bps;
            }
        }
        self.path_links.iter().all(|&l| {
            link_has_headroom(self.ceiling_sum[l as usize], self.link_capacity[l as usize])
        }) && set.rebuild(self.flows.iter().map(|f| f.cap_bps))
            && set.spread_ok()
    }

    /// Registers one flow; `path` holds directed-link indices.
    pub fn push_flow(&mut self, path: impl IntoIterator<Item = u32>, cap_bps: f64) {
        let start = self.path_links.len() as u32;
        self.path_links.extend(path);
        self.flows.push(FillFlow {
            path_start: start,
            path_len: self.path_links.len() as u32 - start,
            cap_bps,
        });
    }

    /// Runs progressive filling, writing [`FillProblem::rates`] and
    /// [`FillProblem::link_rate`].
    ///
    /// Water level rises uniformly across all unfrozen flows; a flow
    /// freezes when it hits its own ceiling or when any link on its path
    /// saturates. Each iteration freezes at least one flow, so the loop
    /// runs at most `flows` times at `O(flows + links)` per pass.
    pub fn progressive_fill(&mut self) {
        let n = self.flows.len();
        let links = self.link_capacity.len();
        self.rates.clear();
        self.rates.resize(n, 0.0);
        self.link_rate.clear();
        self.link_rate.resize(links, 0.0);
        self.frozen.clear();
        self.frozen.resize(n, false);
        self.remaining.clear();
        self.remaining.extend_from_slice(&self.link_capacity);
        self.count.clear();
        self.count.resize(links, 0);
        self.active_links.clear();
        for i in 0..n {
            for l in 0..self.flows[i].path_len {
                let link = self.path_links[(self.flows[i].path_start + l) as usize];
                if self.count[link as usize] == 0 {
                    self.active_links.push(link);
                }
                self.count[link as usize] += 1;
            }
        }

        let mut unfrozen = n;
        let mut level = 0.0_f64;
        while unfrozen > 0 {
            // The next event: a link's fair share exhausts, or a flow's
            // ceiling is reached, whichever is nearer.
            let mut delta = f64::INFINITY;
            for &l in &self.active_links {
                if self.count[l as usize] > 0 {
                    delta = delta
                        .min(self.remaining[l as usize].max(0.0) / self.count[l as usize] as f64);
                }
            }
            for i in 0..n {
                if !self.frozen[i] {
                    delta = delta.min((self.flows[i].cap_bps - level).max(0.0));
                }
            }
            if !delta.is_finite() {
                // No unfrozen flow crosses any counted link (cannot happen
                // for well-formed paths); bail rather than spin.
                delta = 0.0;
            }
            level += delta;
            for &l in &self.active_links {
                if self.count[l as usize] > 0 {
                    self.remaining[l as usize] -= delta * self.count[l as usize] as f64;
                }
            }
            // Freeze flows at their ceiling or behind a saturated link.
            let mut froze_any = false;
            for i in 0..n {
                if self.frozen[i] {
                    continue;
                }
                let capped = level >= self.flows[i].cap_bps * (1.0 - REL_EPS);
                let blocked = {
                    let f = &self.flows[i];
                    let path = &self.path_links
                        [f.path_start as usize..(f.path_start + f.path_len) as usize];
                    path.iter().any(|&l| {
                        self.remaining[l as usize]
                            <= self.link_capacity[l as usize].max(1.0) * REL_EPS
                    })
                };
                if capped || blocked {
                    self.frozen[i] = true;
                    self.rates[i] = level;
                    unfrozen -= 1;
                    froze_any = true;
                    for off in 0..self.flows[i].path_len {
                        let link = self.path_links[(self.flows[i].path_start + off) as usize];
                        self.count[link as usize] -= 1;
                    }
                }
            }
            if !froze_any {
                // Numerical stall (all deltas rounded to zero without a
                // freeze): freeze everything at the current level.
                for i in 0..n {
                    if !self.frozen[i] {
                        self.frozen[i] = true;
                        self.rates[i] = level;
                        unfrozen -= 1;
                    }
                }
            }
        }

        for i in 0..n {
            let f = &self.flows[i];
            for off in 0..f.path_len {
                let l = self.path_links[(f.path_start + off) as usize];
                self.link_rate[l as usize] += self.rates[i];
            }
        }
        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    /// The fill's first invariants: no link carries more than its
    /// capacity, and every flow is either at its ceiling or crosses a
    /// saturated link (both up to float slack).
    #[cfg(debug_assertions)]
    fn assert_invariants(&self) {
        const SLACK: f64 = 1e-6;
        for &l in &self.active_links {
            let (rate, cap) = (self.link_rate[l as usize], self.link_capacity[l as usize]);
            assert!(
                rate <= cap * (1.0 + SLACK) + SLACK,
                "fill overloads link {l}: {rate} bps on {cap} bps"
            );
        }
        for (i, f) in self.flows.iter().enumerate() {
            let path =
                &self.path_links[f.path_start as usize..(f.path_start + f.path_len) as usize];
            let capped = self.rates[i] >= f.cap_bps * (1.0 - SLACK);
            let blocked = path.iter().any(|&l| {
                self.link_rate[l as usize] >= self.link_capacity[l as usize] * (1.0 - SLACK)
            });
            assert!(
                capped || blocked,
                "flow {i} at {} bps is below its ceiling {} and crosses no saturated link",
                self.rates[i],
                f.cap_bps
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(problem: &mut FillProblem) -> Vec<f64> {
        problem.progressive_fill();
        problem.rates.clone()
    }

    #[test]
    fn single_flow_takes_the_bottleneck() {
        let mut p = FillProblem::default();
        p.reset(2);
        p.link_capacity[0] = 1_000_000.0;
        p.link_capacity[1] = 250_000.0;
        p.push_flow([0u32, 1], f64::INFINITY);
        assert_eq!(rates(&mut p), vec![250_000.0]);
        assert_eq!(p.link_rate[1], 250_000.0);
    }

    #[test]
    fn two_flows_split_a_shared_link_evenly() {
        let mut p = FillProblem::default();
        p.reset(1);
        p.link_capacity[0] = 1_000_000.0;
        p.push_flow([0u32], f64::INFINITY);
        p.push_flow([0u32], f64::INFINITY);
        let r = rates(&mut p);
        assert!((r[0] - 500_000.0).abs() < 1.0, "{r:?}");
        assert!((r[1] - 500_000.0).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn capped_flow_leaves_headroom_to_the_other() {
        let mut p = FillProblem::default();
        p.reset(1);
        p.link_capacity[0] = 1_000_000.0;
        p.push_flow([0u32], 200_000.0); // loss-limited flow
        p.push_flow([0u32], f64::INFINITY);
        let r = rates(&mut p);
        assert!((r[0] - 200_000.0).abs() < 1.0, "{r:?}");
        assert!((r[1] - 800_000.0).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn max_min_is_bottleneck_local() {
        // Flow A crosses a thin link; flow B shares only the fat link with
        // A and should soak up what A cannot use.
        let mut p = FillProblem::default();
        p.reset(2);
        p.link_capacity[0] = 100_000.0; // thin
        p.link_capacity[1] = 1_000_000.0; // fat, shared
        p.push_flow([0u32, 1], f64::INFINITY);
        p.push_flow([1u32], f64::INFINITY);
        let r = rates(&mut p);
        assert!((r[0] - 100_000.0).abs() < 1.0, "{r:?}");
        assert!((r[1] - 900_000.0).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn empty_problem_is_fine() {
        let mut p = FillProblem::default();
        p.reset(3);
        p.progressive_fill();
        assert!(p.rates.is_empty());
        assert_eq!(p.link_rate, vec![0.0; 3]);
    }

    /// Flows from one sender (link 0) to one receiver each (links 1..),
    /// all links of `capacity`, one flow per ceiling.
    fn fan_out(capacity: f64, caps: &[f64]) -> FillProblem {
        let mut p = FillProblem::default();
        p.reset(caps.len() + 1);
        p.link_capacity.fill(capacity);
        for (i, &cap) in caps.iter().enumerate() {
            p.push_flow([0, i as u32 + 1], cap);
        }
        p
    }

    /// The guard's verdict, then the fill's, on one problem.
    fn guard_then_fill(p: &mut FillProblem) -> (bool, bool) {
        let exact = p.ceilings_are_exact(&mut CeilingSet::default());
        p.progressive_fill();
        (exact, p.rates_are_ceilings())
    }

    #[test]
    fn guard_rejects_ceilings_more_than_twice_apart() {
        // The second level step `level + (c - level)` rounds: without
        // Sterbenz the fill misses the larger ceiling by one ulp.
        let mut p = fan_out(1e9, &[162_572.030_410_805_4, 443_716.134_966_934_5]);
        let (exact, rates_are_ceilings) = guard_then_fill(&mut p);
        assert_ne!(p.rates[1].to_bits(), p.flows[1].cap_bps.to_bits());
        assert!(!rates_are_ceilings);
        assert!(!exact, "ceilings 2.7x apart must fail the guard");
    }

    #[test]
    fn guard_rejects_near_tied_ceilings() {
        // The larger flow freezes at the smaller one's level.
        let mut p = fan_out(1e9, &[1e6, 1e6 * (1.0 + 1e-10)]);
        let (exact, rates_are_ceilings) = guard_then_fill(&mut p);
        assert_eq!(p.rates[1], 1e6);
        assert!(!rates_are_ceilings);
        assert!(!exact, "a near-tie must fail the guard");
    }

    #[test]
    fn guard_rejects_a_link_without_headroom() {
        let mut p = fan_out(1e6, &[6e5, 6e5]);
        let (exact, rates_are_ceilings) = guard_then_fill(&mut p);
        assert!(!rates_are_ceilings, "the shared link binds: {:?}", p.rates);
        assert!(!exact);
        // Summing to just under capacity, within the headroom, also fails.
        let mut p = fan_out(1e6, &[499_999.9, 499_999.9]);
        assert!(!p.ceilings_are_exact(&mut CeilingSet::default()));
    }

    #[test]
    fn guard_accepts_the_big_swarm_shape() {
        // 64 flows on fat links, ceilings spread over [c, 1.9c) with
        // many distinct values: every rate is its ceiling bit for bit and
        // every link rate the ordered sum of its flows' ceilings.
        let caps: Vec<f64> = (0..64u32)
            .map(|i| 4.7e6 * (1.0 + 0.9 * ((i as f64 * 0.618_033_988_75) % 1.0)))
            .collect();
        let mut p = fan_out(512e6, &caps);
        let (exact, rates_are_ceilings) = guard_then_fill(&mut p);
        assert!(exact, "fat links and ceilings within 2x pass the guard");
        assert!(rates_are_ceilings);
        let sums: Vec<u64> = p.ceiling_sum.iter().map(|s| s.to_bits()).collect();
        let rates: Vec<u64> = p.link_rate.iter().map(|r| r.to_bits()).collect();
        assert_eq!(sums, rates);
    }

    #[test]
    fn ceiling_set_tracks_spread_and_ties() {
        let mut set = CeilingSet::default();
        assert!(set.spread_ok());
        assert!(set.insert(1e6) && set.insert(1.9e6) && set.insert(1e6));
        assert!(set.spread_ok());
        assert!(set.insert(2.1e6));
        assert!(!set.spread_ok(), "2.1x the smallest");
        assert!(set.remove(2.1e6) && set.spread_ok());
        // A near-tie is reported by the insert that creates it and by the
        // removal that leaves one adjacent.
        let (a, m, b) = (1.5e6, 1.5e6 * (1.0 + 3e-10), 1.5e6 * (1.0 + 6e-10));
        assert!(!set.insert(a) || !set.insert(m));
        assert!(!set.insert(b));
        assert!(!set.remove(m));
        assert!(set.replace(b, 1.7e6) && set.remove(a));
        let mut fresh = CeilingSet::default();
        assert!(fresh.rebuild([1e6, 1.9e6, 1e6, 1.7e6].into_iter()));
        assert_eq!(fresh, set);
        assert!(!set.insert(0.0) || !set.spread_ok());
    }

    #[test]
    fn fill_is_deterministic() {
        let build = || {
            let mut p = FillProblem::default();
            p.reset(4);
            for l in 0..4 {
                p.link_capacity[l] = 1_000_000.0 / (l + 1) as f64;
            }
            for i in 0..16u32 {
                p.push_flow([i % 4, (i + 1) % 4], 300_000.0 + 10_000.0 * i as f64);
            }
            p.progressive_fill();
            p.rates
        };
        assert_eq!(build(), build());
    }
}
