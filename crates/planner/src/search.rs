//! Bounded bi-criteria DP over per-task node assignments × stripe factors.
//!
//! For one (machine, I/O design, tail structure) the search walks the
//! task table's slots ([`task_slots`]) stage by stage, extending partial
//! assignments ("labels") with every feasible node count for the next
//! stage. The stripe factor is a first-class axis: each label carries one
//! of the machine's candidate factors, whose steady-state read time enters
//! the read-bearing slot's bound (a budgeted stage, or the base label when
//! that slot has fixed capacity, as the separate read task does), so the DP
//! trades read bandwidth against node allocation instead of being told the
//! layout. Each label carries two admissible lower bounds — the running
//! bottleneck `max_i T_i` (throughput is its inverse, Eq. 1/3) and the
//! running latency-path sum (Eq. 2/4) — and every stage prices its slot
//! with [`slot_bound`], the task table's own Eq. 6/7 costs with the
//! communication peer count relaxed to one and, on heterogeneous pools,
//! node capacity relaxed to the `q` fastest nodes. Both relaxations only
//! ever under-estimate, so a label's bounds never exceed the exact analytic
//! cost of any completion.
//!
//! Pruning must stay *sound*: bounds are relaxed, so label A bound-dominating
//! label B does **not** imply every completion of A beats the same completion
//! of B — the unmodeled peer-latency terms can differ between them. All
//! dominance tests therefore use **slack dominance**: B is discarded only
//! when `A.maxt + slack_bot ≤ B.maxt` and `A.lat + slack_lat ≤ B.lat`,
//! where the slacks bound the total unmodeled cost any completion can add
//! (`slack_bot` = one task's two relaxed directions, `slack_lat` = that per
//! latency-path stage). Then `exact(A+S) ≤ lb(A+S) + slack ≤ lb(B+S) ≤
//! exact(B+S)` for every suffix `S`: the discarded label's exact completions
//! are all matched-or-beaten. Three prunes apply it:
//!
//! - **dominance within a cell** (same stage, same nodes used);
//! - **dominance across cells** (same stage, *more* nodes used): any
//!   completion open to the bigger label is open to the smaller one;
//! - **beam bound**: cells keep at most `beam_width` labels, evenly spaced
//!   along their bottleneck/latency trade-off curve. This trim is the one
//!   heuristic cut; the soundness tests below disable it with a huge beam.
//!
//! A merged slot (the combined PC+CFAR tail, Eq. 7) is one stage on the
//! union of its nodes. Two adjacent latency-path slots with the same
//! spatial predecessors (the easy and hard beamformers) fold into one pair
//! stage: both metrics depend on the pair only through `max(T_a, T_b)`, and
//! the relaxed peer terms are identical for the two branches, so the
//! per-total argmin split is exactly optimal. This collapses the state
//! space from `O(N^7)` assignments to `O(stages · N · beam · |sfs|)`
//! labels, and a new slot in the task table needs no edit here.
//!
//! A structure's DP reads only its [`SearchInput`]: the stage rows, each
//! stripe factor's fixed-slot charge, the slack and the knobs. Structures
//! whose inputs are bit-identical (store tiers that price the read alike)
//! share one run of [`run_dp`] per planner run ([`SearchMemo`]).

use stap_core::{IoStrategy, TailStructure};
use stap_model::assignment::Assignment;
use stap_model::machines::MachineModel;
use stap_model::tasktable::{slot_bound, task_slots, ReadTerm, TaskSlot};
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};

/// A candidate assignment surviving the DP, with its admissible bounds.
#[derive(Debug, Clone)]
pub(crate) struct SearchCandidate {
    pub assignment: Assignment,
    /// The stripe factor this candidate's bounds assume.
    pub stripe_factor: usize,
    /// Lower bound on the pipeline bottleneck `max_i T_i` (seconds).
    pub bound_bottleneck: f64,
    /// Lower bound on the latency-path sum (seconds).
    pub bound_latency: f64,
}

/// DP result for one structure, with pruning counters.
#[derive(Debug, Clone)]
pub(crate) struct SearchOutcome {
    pub candidates: Vec<SearchCandidate>,
    pub labels_created: u64,
    pub labels_pruned: u64,
}

/// One DP stage: one budgeted slot, or a folded pair of them.
struct Stage {
    /// The tasks the stage's nodes are dealt to, in pipeline order.
    tasks: Vec<TaskId>,
    /// Whether the stage is on the latency path (weight tasks are not).
    counts_latency: bool,
    /// Stage-time bound rows: one row shared by every stripe factor, or
    /// (for the read-bearing stage) one row per candidate factor.
    /// `row[q - min_nodes()]` = admissible stage-time bound on `q` nodes.
    times: Vec<Vec<f64>>,
    /// For two-task stages: the node split behind each `q`.
    split: Vec<(usize, usize)>,
}

/// Bit-for-bit equality: two stages price every node count alike.
impl PartialEq for Stage {
    fn eq(&self, o: &Self) -> bool {
        self.tasks == o.tasks
            && self.counts_latency == o.counts_latency
            && self.split == o.split
            && self.times.len() == o.times.len()
            && self.times.iter().zip(&o.times).all(|(a, b)| same_bits(a, b))
    }
}

/// Whether two float slices hold the same bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Stage {
    /// One node per task.
    fn min_nodes(&self) -> usize {
        self.tasks.len()
    }

    fn t(&self, sfi: usize, q: usize) -> f64 {
        let row = if self.times.len() == 1 { &self.times[0] } else { &self.times[sfi] };
        row[q - self.min_nodes()]
    }
}

/// Best split of `q` nodes between two tasks whose joint cost is the max of
/// their individual bounds; returns (cost, split) per q in `2..=qmax`.
fn fold_pair(ta: &[f64], tb: &[f64], qmax: usize) -> (Vec<f64>, Vec<(usize, usize)>) {
    let mut time = Vec::with_capacity(qmax.saturating_sub(1));
    let mut split = Vec::with_capacity(qmax.saturating_sub(1));
    for q in 2..=qmax {
        let mut best = f64::INFINITY;
        let mut arg = (1, q - 1);
        for pa in 1..q {
            let cost = ta[pa - 1].max(tb[q - pa - 1]);
            if cost < best {
                best = cost;
                arg = (pa, q - pa);
            }
        }
        time.push(best);
        split.push(arg);
    }
    (time, split)
}

/// Whether slot `b` folds into the stage of the slot `a` before it: two
/// single-task latency-path slots that read nothing and share their
/// spatial predecessors (the easy and hard beamformers).
fn folds(a: &TaskSlot, b: &TaskSlot) -> bool {
    let lone = |s: &TaskSlot| s.on_latency_path() && s.merged.is_none() && !s.reads;
    lone(a) && lone(b) && a.spatial_preds == b.spatial_preds
}

/// The DP stages of `slots` under a `budget` of nodes: every slot the
/// assignment sizes, in pipeline order, with each foldable pair as one
/// stage. `reads` holds one read term per candidate stripe factor.
fn build_stages(
    m: &MachineModel,
    w: &StapWorkload,
    slots: &[TaskSlot],
    budget: usize,
    reads: &[ReadTerm],
) -> Vec<Stage> {
    let mut groups: Vec<Vec<&TaskSlot>> = Vec::new();
    for s in slots.iter().filter(|s| s.fixed_capacity().is_none()) {
        match groups.last_mut() {
            Some(g) if g.len() == 1 && folds(g[0], s) => g.push(s),
            _ => groups.push(vec![s]),
        }
    }
    let members = |g: &[&TaskSlot]| -> Vec<TaskId> { g.iter().flat_map(|s| s.members()).collect() };
    let need: usize = groups.iter().map(|g| members(g).len()).sum();
    assert!(budget >= need, "need at least one node per compute task ({need}), got {budget}");
    assert!(groups.len() <= MAX_STAGES, "{} DP stages exceed MAX_STAGES", groups.len());
    let bound = |s: &TaskSlot, q: usize, r: &ReadTerm| slot_bound(m, w, s, q, r);
    groups
        .iter()
        .map(|g| {
            let tasks = members(g);
            let min_nodes = tasks.len();
            // Every other stage holds its minimum, so this one gets the rest.
            let pmax = budget + min_nodes - need;
            let (times, split) = match g[..] {
                // Both metrics see a folded pair only through
                // `max(T_a, T_b)`, and the relaxed peer terms are the same
                // for both, so the per-total argmin split is exactly optimal.
                [a, b] => {
                    let ta: Vec<f64> = (1..pmax).map(|p| bound(a, p, &reads[0])).collect();
                    let tb: Vec<f64> = (1..pmax).map(|p| bound(b, p, &reads[0])).collect();
                    let (time, split) = fold_pair(&ta, &tb, pmax);
                    (vec![time], split)
                }
                // Only the read-bearing bound depends on the read time, so
                // only that stage gets one row per stripe factor. A merged
                // slot (Eq. 7) splits its nodes in proportion to workload
                // for bookkeeping; the model only ever sees the sum.
                _ => {
                    let s = g[0];
                    let rows = if s.reads { reads } else { &reads[..1] };
                    let times =
                        rows.iter().map(|r| (min_nodes..=pmax).map(|q| bound(s, q, r)).collect());
                    let split = s.merged.map_or(vec![], |second| {
                        let w1 = w.flops(s.id).max(1.0);
                        let w2 = w.flops(second).max(1.0);
                        (min_nodes..=pmax)
                            .map(|q| {
                                let p1 =
                                    ((q as f64 * w1 / (w1 + w2)).round() as usize).clamp(1, q - 1);
                                (p1, q - p1)
                            })
                            .collect()
                    });
                    (times.collect(), split)
                }
            };
            Stage { tasks, counts_latency: g[0].on_latency_path(), times, split }
        })
        .collect()
}

/// DP stages per structure at most: the most [`task_slots`] yields (five
/// single stages and the folded pair). Each one widens every label, which
/// the DP copies and sorts millions of times.
const MAX_STAGES: usize = 6;

#[derive(Debug, Clone, Copy)]
struct Label {
    maxt: f64,
    lat: f64,
    /// Nodes picked per stage so far, inline: extending a label allocates
    /// nothing.
    picks: [u16; MAX_STAGES],
    stages: u8,
    /// Index into the candidate stripe-factor list.
    sfi: u16,
}

impl Label {
    fn base(sfi: usize) -> Self {
        Label { maxt: 0.0, lat: 0.0, picks: [0; MAX_STAGES], stages: 0, sfi: sfi as u16 }
    }

    /// This label charged with a task whose bound is `t`.
    fn charged(mut self, t: f64, counts_latency: bool) -> Self {
        self.maxt = self.maxt.max(t);
        self.lat += if counts_latency { t } else { 0.0 };
        self
    }

    /// This label with `q` nodes on the next stage, whose bound is `t`.
    fn extended(self, q: usize, t: f64, counts_latency: bool) -> Self {
        let mut l = self.charged(t, counts_latency);
        l.picks[l.stages as usize] = q as u16;
        l.stages += 1;
        l
    }
}

/// The slack that makes relaxed-bound dominance sound: upper bounds on how
/// much unmodeled cost (peer-latency terms relaxed to one message) any
/// completion can add beyond a label's lower bounds.
#[derive(Debug, Clone, Copy)]
struct Slack {
    /// ≥ exact − bound for any single task: two comm directions, each
    /// relaxed by at most `(peers − 1) · net_latency`.
    bot: f64,
    /// ≥ exact − bound for the latency-path sum: the per-task slack once
    /// per latency-path stage.
    lat: f64,
}

impl Slack {
    /// The slack of a run with `latency_stages` latency-path stages, fixed
    /// slots included.
    fn for_run(m: &MachineModel, latency_stages: usize, budget: usize) -> Self {
        let per_task = 2.0 * m.net_latency * budget.saturating_sub(1) as f64;
        Slack { bot: per_task, lat: per_task * latency_stages as f64 }
    }

    fn dominates(&self, a_maxt: f64, a_lat: f64, b_maxt: f64, b_lat: f64) -> bool {
        a_maxt + self.bot <= b_maxt && a_lat + self.lat <= b_lat
    }
}

/// Slack-dominance-prunes one DP cell in place and trims it to `beam`
/// labels evenly spaced along the (sorted) bottleneck axis. Returns the
/// number of labels discarded. Every pass keeps a subsequence of the one
/// before, so the survivors are compacted to the front of `cell` itself.
fn prune_cell(cell: &mut Vec<Label>, beam: usize, slack: Slack) -> u64 {
    let before = cell.len();
    sort_by_bounds(cell);
    // Two-pointer scan: kept labels (`cell[..kept]`) are sorted by maxt, so
    // the potential dominators of `l` are exactly the kept prefix with
    // `maxt + slack.bot ≤ l.maxt`; track that prefix's min latency.
    let (mut kept, mut j) = (0usize, 0usize);
    let mut prefix_min_lat = f64::INFINITY;
    for i in 0..before {
        let l = cell[i];
        while j < kept && cell[j].maxt + slack.bot <= l.maxt {
            prefix_min_lat = prefix_min_lat.min(cell[j].lat);
            j += 1;
        }
        if prefix_min_lat + slack.lat > l.lat {
            cell[kept] = l;
            kept += 1;
        }
    }
    cell.truncate(kept);
    if kept > beam && beam > 0 {
        // The beam trim is the one heuristic cut (tests that prove
        // exactness disable it). Spend the budget on the plain bound
        // staircase: the slack-kept near-duplicates exist only so no
        // exact-optimal completion is *provably* lost, and spacing the beam
        // across them would dilute coverage of the actual front.
        let mut best_lat = f64::INFINITY;
        cell.retain(|l| {
            l.lat < best_lat && {
                best_lat = l.lat;
                true
            }
        });
        let n = cell.len();
        if n > beam {
            let (mut picked, mut last) = (0usize, usize::MAX);
            for i in 0..beam {
                let idx = i * (n - 1) / (beam - 1).max(1);
                if idx != last {
                    cell[picked] = cell[idx];
                    picked += 1;
                    last = idx;
                }
            }
            cell.truncate(picked);
        }
    }
    (before - cell.len()) as u64
}

/// Whether `v` is a DP bound: finite, with its sign bit clear (so not
/// `-0.0`). On such values the bit pattern orders as the number does.
fn is_bound(v: f64) -> bool {
    v.is_finite() && v.is_sign_positive()
}

/// A label's (bottleneck, latency) as integers: on [bounds](is_bound) their
/// order is the numeric one and they are equal exactly when the numbers
/// are, so a stable sort by this key is the stable `partial_cmp` sort.
fn sort_key(l: &Label) -> (u64, u64) {
    (l.maxt.to_bits(), l.lat.to_bits())
}

/// Stable-sorts a cell by (bottleneck, latency).
fn sort_by_bounds(cell: &mut [Label]) {
    debug_assert!(cell.iter().all(|l| is_bound(l.maxt) && is_bound(l.lat)));
    cell.sort_by_key(sort_key);
}

/// The (bottleneck, latency) staircase used for cross-cell dominance:
/// labels that used *fewer* nodes and are slack-better on both bounds
/// dominate, because every completion of the bigger label is also open to
/// the smaller one. `points` ascends in bottleneck and strictly descends in
/// latency, so the best latency among the points slack-below a bottleneck
/// is the last of a prefix.
struct Accumulator {
    points: Vec<(f64, f64)>,
    /// The merge's output buffer, swapped with `points` after each cell.
    merged: Vec<(f64, f64)>,
    slack: Slack,
}

impl Accumulator {
    /// How many points lie slack-below bottleneck `maxt`.
    fn below(&self, maxt: f64) -> usize {
        self.points.partition_point(|&(m, _)| m + self.slack.bot <= maxt)
    }

    /// [`Self::below`] for a `maxt` no smaller than the one `from` answered.
    fn below_from(&self, from: usize, maxt: f64) -> usize {
        let n =
            self.points[from..].iter().take_while(|&&(m, _)| m + self.slack.bot <= maxt).count();
        from + n
    }

    /// Whether the best of the first `below` points, the ones slack-below
    /// `l` on the bottleneck, slack-dominates `l`.
    fn shadows(&self, below: usize, l: &Label) -> bool {
        below.checked_sub(1).is_some_and(|i| {
            let (m, lat) = self.points[i];
            self.slack.dominates(m, lat, l.maxt, l.lat)
        })
    }

    /// Adds the labels of a cell sorted by [`sort_key`] in one merge.
    /// Sequential insertion leaves the minimal distinct points of the
    /// union whatever the order; a merge by (bottleneck, latency) visits
    /// the union in that order, where a point is minimal exactly when its
    /// latency is below that of every point before it.
    fn absorb(&mut self, cell: &[Label]) {
        debug_assert!(cell.windows(2).all(|p| sort_key(&p[0]) <= sort_key(&p[1])));
        self.merged.clear();
        let mut best_lat = f64::INFINITY;
        let mut keep = |p: (f64, f64)| {
            if p.1 < best_lat {
                best_lat = p.1;
                self.merged.push(p);
            }
        };
        let mut old = self.points.iter().copied().peekable();
        for l in cell {
            let p = (l.maxt, l.lat);
            while let Some(q) = old.next_if(|&q| q <= p) {
                keep(q);
            }
            keep(p);
        }
        old.for_each(keep);
        std::mem::swap(&mut self.points, &mut self.merged);
    }
}

/// What every structure searched on one machine shares.
pub(crate) struct Space<'a> {
    /// The machine the compute and communication bounds are priced on.
    pub m: &'a MachineModel,
    /// The candidate stripe factors.
    pub sfs: Vec<usize>,
    /// `m` restriped to each candidate factor: the read bound's machine.
    pub restriped: &'a [MachineModel],
    pub shape: ShapeParams,
    pub budget: usize,
    pub beam_width: usize,
    pub max_candidates: usize,
}

/// Everything one structure's DP reads. Equality is bit for bit, so
/// structures with equal inputs can share one DP run ([`SearchMemo`]).
pub(crate) struct SearchInput {
    stages: Vec<Stage>,
    /// Each stripe factor's base label `(maxt, lat)`: what the
    /// fixed-capacity slots charge before any stage.
    bases: Vec<[f64; 2]>,
    slack: Slack,
    sfs: Vec<usize>,
    budget: usize,
    beam_width: usize,
    max_candidates: usize,
}

impl PartialEq for SearchInput {
    fn eq(&self, o: &Self) -> bool {
        self.stages == o.stages
            && same_bits(self.bases.as_flattened(), o.bases.as_flattened())
            && same_bits(&[self.slack.bot, self.slack.lat], &[o.slack.bot, o.slack.lat])
            && self.sfs == o.sfs
            && (self.budget, self.beam_width, self.max_candidates)
                == (o.budget, o.beam_width, o.max_candidates)
    }
}

impl Space<'_> {
    /// The DP input of one structure.
    pub(crate) fn input(&self, io: IoStrategy, tail: TailStructure) -> SearchInput {
        let (m, budget) = (self.m, self.budget);
        assert!(!self.sfs.is_empty(), "need at least one candidate stripe factor");
        if let Some(pool) = m.pool_size() {
            assert!(budget <= pool, "budget {budget} exceeds the {pool}-node pool");
        }
        let w = StapWorkload::derive(self.shape);
        let on = |sf: usize| {
            let msf = self.restriped.iter().find(|r| r.fs.stripe_factor == sf);
            msf.expect("every candidate factor is restriped")
        };
        let reads: Vec<ReadTerm> =
            self.sfs.iter().map(|&sf| ReadTerm::new(on(sf), self.shape, io)).collect();
        let slots = task_slots(io, tail);
        let stages = build_stages(m, &w, &slots, budget, &reads);
        let fixed: Vec<&TaskSlot> = slots.iter().filter(|s| s.fixed_capacity().is_some()).collect();
        let latency_stages = stages.iter().filter(|s| s.counts_latency).count()
            + fixed.iter().filter(|s| s.on_latency_path()).count();
        // A fixed-capacity slot (the separate read task's reader nodes)
        // sits outside the node budget but enters both bounds; a
        // read-bearing budgeted slot pays the read in its own stage.
        let bases = reads
            .iter()
            .map(|r| {
                let l = fixed.iter().fold(Label::base(0), |l, s| {
                    l.charged(slot_bound(m, &w, s, 0, r), s.on_latency_path())
                });
                [l.maxt, l.lat]
            })
            .collect();
        SearchInput {
            stages,
            bases,
            slack: Slack::for_run(m, latency_stages, budget),
            sfs: self.sfs.clone(),
            budget,
            beam_width: self.beam_width,
            max_candidates: self.max_candidates,
        }
    }
}

/// The DP outcomes of one planner run, one per distinct [`SearchInput`].
#[derive(Default)]
pub(crate) struct SearchMemo {
    runs: Vec<(SearchInput, SearchOutcome)>,
}

impl SearchMemo {
    /// The outcome of `input`'s DP, run only when no earlier input was
    /// bit-identical. The counters are those of the run, so every
    /// structure reports the work its own search takes.
    pub(crate) fn outcome(&mut self, input: SearchInput) -> SearchOutcome {
        if let Some((_, out)) = self.runs.iter().find(|(done, _)| *done == input) {
            return out.clone();
        }
        let out = run_dp(&input);
        self.runs.push((input, out.clone()));
        out
    }

    /// DP runs so far.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> usize {
        self.runs.len()
    }
}

/// Runs the bounded DP for one structure over the given candidate stripe
/// factors and returns the surviving bound-Pareto candidates (at most
/// `max_candidates`), ties resolved toward the smallest sufficient factor.
#[cfg(test)]
#[allow(clippy::too_many_arguments)] // one axis per search dimension
pub(crate) fn search_structure(
    m: &MachineModel,
    shape: ShapeParams,
    io: IoStrategy,
    tail: TailStructure,
    sfs: &[usize],
    budget: usize,
    beam_width: usize,
    max_candidates: usize,
) -> SearchOutcome {
    let restriped: Vec<MachineModel> = sfs.iter().map(|&sf| m.with_stripe_factor(sf)).collect();
    let sfs = sfs.to_vec();
    let space = Space { m, sfs, restriped: &restriped, shape, budget, beam_width, max_candidates };
    run_dp(&space.input(io, tail))
}

/// The bounded DP on one input: the surviving bound-Pareto candidates (at
/// most `max_candidates`), ties resolved toward the smallest sufficient
/// factor.
fn run_dp(input: &SearchInput) -> SearchOutcome {
    let SearchInput { stages, bases, slack, sfs, budget, beam_width, max_candidates } = input;
    let (slack, budget) = (*slack, *budget);
    let suffix_min: Vec<usize> = {
        let mut v = vec![0usize; stages.len() + 1];
        for i in (0..stages.len()).rev() {
            v[i] = v[i + 1] + stages[i].min_nodes();
        }
        v
    };

    let mut labels_created: u64 = 0;
    let mut labels_pruned: u64 = 0;

    // One base label per stripe factor.
    let mut cells: Vec<Vec<Label>> = vec![Vec::new(); budget + 1];
    cells[0] = bases
        .iter()
        .enumerate()
        .map(|(sfi, &[maxt, lat])| Label { maxt, lat, ..Label::base(sfi) })
        .collect();

    // Each stage is built one target cell (`used + q` nodes) at a time, in
    // ascending order: by then the accumulator holds every smaller cell of
    // the stage, so a label it dominates is counted and never stored.
    // Parents are walked by `used`, then in cell order: the stable sort in
    // `prune_cell` and the beam's first-of-equals break ties by this
    // sequence, and the plan goldens pin it. Every pruned label's
    // read contribution is already materialized (stage 0 pays it), so
    // cross-stripe-factor dominance is sound here.
    let mut next: Vec<Vec<Label>> = vec![Vec::new(); budget + 1];
    let mut acc = Accumulator { points: Vec::new(), merged: Vec::new(), slack };
    for (si, stage) in stages.iter().enumerate() {
        acc.points.clear();
        let top = budget - suffix_min[si + 1];
        for (target, cell) in next.iter_mut().enumerate() {
            cell.clear();
            if target < stage.min_nodes() || target > top {
                continue;
            }
            for (used, parents) in cells[..=target - stage.min_nodes()].iter().enumerate() {
                if parents.is_empty() {
                    continue;
                }
                let q = target - used;
                labels_created += parents.len() as u64;
                let mut place = |child: Label, below: usize| {
                    if acc.shadows(below, &child) {
                        labels_pruned += 1;
                    } else {
                        cell.push(child);
                    }
                };
                match &stage.times[..] {
                    // Past the base cell every parent cell ascends in maxt
                    // (`prune_cell` sorted it). One time row prices the
                    // pair once, the children ascend too, and the points
                    // slack-below each one are a prefix that only grows.
                    [row] if si > 0 => {
                        let (t, mut below) = (row[q - stage.min_nodes()], 0);
                        for label in parents {
                            let child = label.extended(q, t, stage.counts_latency);
                            below = acc.below_from(below, child.maxt);
                            place(child, below);
                        }
                    }
                    // The base cell holds one label per stripe factor, in
                    // factor order, not sorted.
                    _ => {
                        for label in parents {
                            let t = stage.t(label.sfi as usize, q);
                            let child = label.extended(q, t, stage.counts_latency);
                            place(child, acc.below(child.maxt));
                        }
                    }
                }
            }
            labels_pruned += prune_cell(cell, *beam_width, slack);
            acc.absorb(cell);
        }
        std::mem::swap(&mut cells, &mut next);
    }

    // Gather every complete label, slack-prune on the bounds, cap, and
    // order ties toward the smallest sufficient stripe factor.
    let mut finals: Vec<Label> = cells.into_iter().flatten().collect();
    labels_pruned += prune_cell(&mut finals, *max_candidates, slack);
    finals.sort_by_key(|l| (sort_key(l), sfs[l.sfi as usize]));

    let candidates = finals
        .into_iter()
        .map(|l| SearchCandidate {
            assignment: picks_to_assignment(stages, &l.picks[..l.stages as usize]),
            stripe_factor: sfs[l.sfi as usize],
            bound_bottleneck: l.maxt,
            bound_latency: l.lat,
        })
        .collect();
    SearchOutcome { candidates, labels_created, labels_pruned }
}

/// Expands a DP pick vector back into the assignment of every task the
/// stages deal nodes to, in pipeline order.
fn picks_to_assignment(stages: &[Stage], picks: &[u16]) -> Assignment {
    let mut tasks: Vec<TaskId> = Vec::with_capacity(7);
    let mut nodes: Vec<usize> = Vec::with_capacity(7);
    for (stage, &qu) in stages.iter().zip(picks) {
        let q = qu as usize;
        tasks.extend(&stage.tasks);
        match stage.split.get(q - stage.min_nodes()) {
            Some(&(pa, pb)) => nodes.extend([pa, pb]),
            None => nodes.push(q),
        }
    }
    Assignment::new(tasks, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_model::assignment::{assign_nodes, pack_classes};
    use stap_model::prediction::predict_with_assignment;

    fn paragon64() -> MachineModel {
        MachineModel::paragon(64)
    }

    fn run(io: IoStrategy, tail: TailStructure, budget: usize) -> SearchOutcome {
        search_structure(
            &paragon64(),
            ShapeParams::paper_default(),
            io,
            tail,
            &[64],
            budget,
            32,
            16,
        )
    }

    #[test]
    fn candidates_are_valid_assignments() {
        for io in [IoStrategy::Embedded, IoStrategy::SeparateTask] {
            for tail in [TailStructure::Split, TailStructure::Combined] {
                let out = run(io, tail, 25);
                assert!(!out.candidates.is_empty());
                for c in &out.candidates {
                    assert_eq!(c.assignment.tasks.len(), 7);
                    assert!(c.assignment.total() <= 25, "over budget: {:?}", c.assignment);
                    assert!(c.assignment.nodes.iter().all(|&n| n >= 1));
                    assert_eq!(c.stripe_factor, 64);
                    // Pipeline order preserved (what predict expects).
                    assert_eq!(c.assignment.tasks, TaskId::SEVEN.to_vec());
                }
            }
        }
    }

    #[test]
    fn bound_front_is_sorted_and_slack_incomparable() {
        let out = run(IoStrategy::Embedded, TailStructure::Split, 50);
        let m = paragon64();
        let shape = ShapeParams::paper_default();
        let w = StapWorkload::derive(shape);
        let slots = task_slots(IoStrategy::Embedded, TailStructure::Split);
        let reads = [ReadTerm::new(&m, shape, IoStrategy::Embedded)];
        let stages = build_stages(&m, &w, &slots, 50, &reads);
        let slack = Slack::for_run(&m, stages.iter().filter(|s| s.counts_latency).count(), 50);
        for pair in out.candidates.windows(2) {
            assert!(pair[0].bound_bottleneck <= pair[1].bound_bottleneck);
        }
        // No surviving candidate may be slack-dominated by another — that
        // would mean the prune missed a provably-worse label.
        for (i, a) in out.candidates.iter().enumerate() {
            for (k, b) in out.candidates.iter().enumerate() {
                assert!(
                    i == k
                        || !slack.dominates(
                            a.bound_bottleneck,
                            a.bound_latency,
                            b.bound_bottleneck,
                            b.bound_latency,
                        ),
                    "candidate {k} survives while slack-dominated by {i}"
                );
            }
        }
    }

    #[test]
    fn search_bound_at_least_matches_heuristic_balance() {
        // The DP's best bottleneck bound must be ≤ the same bound evaluated
        // on the proportional heuristic's assignment (the DP explores that
        // assignment's neighborhood and keeps only non-dominated labels).
        let m = paragon64();
        let shape = ShapeParams::paper_default();
        let w = StapWorkload::derive(shape);
        let slots = task_slots(IoStrategy::Embedded, TailStructure::Split);
        let read = ReadTerm::new(&m, shape, IoStrategy::Embedded);
        for budget in [25usize, 50, 100] {
            let heur = assign_nodes(&w, &TaskId::SEVEN, budget);
            assert_eq!(heur.tasks, slots.iter().map(|s| s.id).collect::<Vec<_>>());
            let heur_bottleneck = slots
                .iter()
                .zip(&heur.nodes)
                .map(|(s, &p)| slot_bound(&m, &w, s, p, &read))
                .fold(0.0f64, f64::max);
            let out = search_structure(
                &m,
                shape,
                IoStrategy::Embedded,
                TailStructure::Split,
                &[64],
                budget,
                32,
                16,
            );
            let best =
                out.candidates.iter().map(|c| c.bound_bottleneck).fold(f64::INFINITY, f64::min);
            assert!(
                best <= heur_bottleneck + 1e-12,
                "budget {budget}: DP bound {best} worse than heuristic {heur_bottleneck}"
            );
        }
    }

    #[test]
    fn pruning_actually_fires() {
        let out = run(IoStrategy::Embedded, TailStructure::Split, 50);
        assert!(out.labels_pruned > 0);
        assert!(out.labels_created > out.labels_pruned);
    }

    #[test]
    fn combined_tail_split_is_proportional_and_positive() {
        let out = run(IoStrategy::Embedded, TailStructure::Combined, 40);
        for c in &out.candidates {
            let p5 = c.assignment.nodes_for(TaskId::PulseCompression).unwrap();
            let p6 = c.assignment.nodes_for(TaskId::Cfar).unwrap();
            assert!(p5 >= 1 && p6 >= 1);
        }
    }

    #[test]
    fn fold_pair_picks_the_balanced_split() {
        // Two identical linear cost curves: the best split of q is q/2.
        let t: Vec<f64> = (1..=9).map(|p| 1.0 / p as f64).collect();
        let (time, split) = fold_pair(&t, &t, 10);
        assert_eq!(split[10 - 2], (5, 5));
        assert!((time[10 - 2] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stages_come_from_the_slots_alone() {
        // A hand-built slot list, not a `task_slots` shape: a fixed reader,
        // a read-fed head, a foldable pair and a merged tail. The planner
        // needs no edit to search it.
        let slot = |id: TaskId, preds: &[usize]| TaskSlot::new(id, preds, &[]);
        let slots = vec![
            TaskSlot { reads: true, ..slot(TaskId::Read, &[]) },
            slot(TaskId::Doppler, &[0]),
            slot(TaskId::EasyBeamform, &[1]),
            slot(TaskId::HardBeamform, &[1]),
            TaskSlot { merged: Some(TaskId::Cfar), ..slot(TaskId::PulseCompression, &[2, 3]) },
        ];
        let m = paragon64();
        let shape = ShapeParams::paper_default();
        let w = StapWorkload::derive(shape);
        let reads = [ReadTerm::new(&m, shape, IoStrategy::SeparateTask)];
        let stages = build_stages(&m, &w, &slots, 12, &reads);
        assert_eq!(stages.len(), 3, "the reader is fixed and the beamformers fold");
        assert_eq!(stages.iter().map(|s| s.min_nodes()).collect::<Vec<_>>(), vec![1, 2, 2]);
        let a = picks_to_assignment(&stages, &[3, 4, 5]);
        assert_eq!(
            a.tasks,
            vec![
                TaskId::Doppler,
                TaskId::EasyBeamform,
                TaskId::HardBeamform,
                TaskId::PulseCompression,
                TaskId::Cfar
            ]
        );
        assert_eq!(a.nodes[0], 3);
        assert_eq!(a.nodes[1] + a.nodes[2], 4);
        assert_eq!(a.nodes[3] + a.nodes[4], 5);
        assert!(a.nodes.iter().all(|&n| n >= 1));
    }

    #[test]
    #[should_panic(expected = "at least one node per compute task")]
    fn tiny_budget_rejected() {
        run(IoStrategy::Embedded, TailStructure::Split, 6);
    }

    #[test]
    fn multi_sf_search_carries_every_factor_to_the_base() {
        // With two candidate factors both must appear among the finals of a
        // generous search (the front trades read bandwidth for nothing else
        // here, so at least the fastest factor must survive).
        let out = search_structure(
            &MachineModel::paragon(16),
            ShapeParams::paper_default(),
            IoStrategy::Embedded,
            TailStructure::Split,
            &[16, 64],
            25,
            1_000_000,
            1_000_000,
        );
        assert!(out.candidates.iter().any(|c| c.stripe_factor == 64));
        for c in &out.candidates {
            assert!([16, 64].contains(&c.stripe_factor));
        }
    }

    // ------------------------------------------------------------------
    // Pruning soundness: brute force over the *full* configuration space
    // (every 7-way node composition × every candidate stripe factor),
    // exact-evaluate everything, and demand the DP front equals the
    // brute-force Pareto front. The beam (the one heuristic cut) is
    // disabled with a huge width; everything else must be lossless.
    // ------------------------------------------------------------------

    /// All 7-part compositions (each part ≥ 1) of every total in 7..=budget.
    fn all_assignments(budget: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur = vec![0usize; 7];
        fn rec(cur: &mut Vec<usize>, i: usize, left: usize, out: &mut Vec<Vec<usize>>) {
            if i == 6 {
                for last in 1..=left {
                    cur[6] = last;
                    out.push(cur.clone());
                }
                return;
            }
            let reserve = 6 - i; // remaining tasks after this one
            for q in 1..=left.saturating_sub(reserve) {
                cur[i] = q;
                rec(cur, i + 1, left - q, out);
            }
        }
        rec(&mut cur, 0, budget, &mut out);
        out
    }

    fn exact_metrics(
        m: &MachineModel,
        io: IoStrategy,
        tail: TailStructure,
        nodes: &[usize],
    ) -> (f64, f64) {
        let a = Assignment::new(TaskId::SEVEN.to_vec(), nodes.to_vec());
        let pred = predict_with_assignment(m, ShapeParams::paper_default(), io, tail, &a);
        (pred.throughput, pred.latency)
    }

    /// Pareto front (max throughput, min latency) of a point set.
    fn pareto_points(pts: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut front: Vec<(f64, f64)> = Vec::new();
        for &(t, l) in pts {
            if pts.iter().any(|&(t2, l2)| t2 >= t && l2 <= l && (t2 > t || l2 < l)) {
                continue;
            }
            if !front.iter().any(|&(ft, fl)| (ft - t).abs() < 1e-12 && (fl - l).abs() < 1e-12) {
                front.push((t, l));
            }
        }
        front
    }

    #[test]
    fn dp_front_equals_brute_force_on_small_instances() {
        let base = MachineModel::paragon(16);
        let sf_sets: [&[usize]; 2] = [&[16], &[16, 64]];
        for budget in [9usize, 10, 11] {
            for io in [IoStrategy::Embedded, IoStrategy::SeparateTask] {
                for tail in [TailStructure::Split, TailStructure::Combined] {
                    for sfs in sf_sets {
                        // Brute force: exact metrics of the whole space.
                        let mut all: Vec<(f64, f64)> = Vec::new();
                        for &sf in sfs {
                            let msf = base.with_stripe_factor(sf);
                            for nodes in all_assignments(budget) {
                                all.push(exact_metrics(&msf, io, tail, &nodes));
                            }
                        }
                        let brute = pareto_points(&all);

                        // DP with the beam disabled.
                        let out = search_structure(
                            &base,
                            ShapeParams::paper_default(),
                            io,
                            tail,
                            sfs,
                            budget,
                            1_000_000,
                            1_000_000,
                        );
                        let dp_exact: Vec<(f64, f64)> = out
                            .candidates
                            .iter()
                            .map(|c| {
                                exact_metrics(
                                    &base.with_stripe_factor(c.stripe_factor),
                                    io,
                                    tail,
                                    &c.assignment.nodes,
                                )
                            })
                            .collect();
                        let dp = pareto_points(&dp_exact);

                        let tol = 1e-9;
                        for &(bt, bl) in &brute {
                            assert!(
                                dp.iter().any(|&(dt, dl)| dt >= bt - tol && dl <= bl + tol),
                                "budget {budget} {io:?} {tail:?} sfs {sfs:?}: \
                                 brute-force optimum ({bt:.6}, {bl:.6}) lost by the DP \
                                 (front {dp:?})"
                            );
                        }
                        for &(dt, dl) in &dp {
                            assert!(
                                !brute.iter().any(|&(bt, bl)| bt >= dt + tol && bl <= dl - tol),
                                "budget {budget} {io:?} {tail:?} sfs {sfs:?}: \
                                 DP point ({dt:.6}, {dl:.6}) strictly dominated in the \
                                 full space"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hetero_bounds_stay_admissible() {
        // On a heterogeneous pool the DP bounds assume best-case packing;
        // the exact evaluation of the *packed* assignment must never beat
        // them (bound ≤ exact on both axes).
        let m = MachineModel::paragon_hetero().with_stripe_factor(64);
        let shape = ShapeParams::paper_default();
        let w = StapWorkload::derive(shape);
        let out = search_structure(
            &m,
            shape,
            IoStrategy::Embedded,
            TailStructure::Split,
            &[64],
            40,
            32,
            16,
        );
        assert!(!out.candidates.is_empty());
        for c in &out.candidates {
            let packed = pack_classes(&w, &c.assignment, &m.classes);
            let pred = predict_with_assignment(
                &m,
                shape,
                IoStrategy::Embedded,
                TailStructure::Split,
                &packed,
            );
            let exact_bottleneck = 1.0 / pred.throughput;
            assert!(
                c.bound_bottleneck <= exact_bottleneck + 1e-9,
                "bottleneck bound {} exceeds exact {}",
                c.bound_bottleneck,
                exact_bottleneck
            );
            assert!(
                c.bound_latency <= pred.latency + 1e-9,
                "latency bound {} exceeds exact {}",
                c.bound_latency,
                pred.latency
            );
        }
    }

    #[test]
    fn a_base_cell_out_of_factor_order_prunes_as_a_sorted_one() {
        // The base cell holds one label per stripe factor in factor order,
        // here with descending bottlenecks (the slow factor's fixed reader
        // first). On 2 nodes the first child's dominator in the
        // accumulator lies past the second one's: each child must find its
        // own prefix, as it does with the factors listed the other way.
        let stage = |task, row: [f64; 2]| Stage {
            tasks: vec![task],
            counts_latency: true,
            times: vec![row.to_vec()],
            split: vec![],
        };
        let input = |bases: Vec<[f64; 2]>, sfs: Vec<usize>| SearchInput {
            stages: vec![stage(TaskId::Doppler, [1.0, 2.0]), stage(TaskId::Cfar, [0.5, 0.5])],
            bases,
            slack: Slack { bot: 0.0, lat: 0.0 },
            sfs,
            budget: 3,
            beam_width: 64,
            max_candidates: 64,
        };
        for out in [
            run_dp(&input(vec![[4.0, 1.0], [0.0, 9.0]], vec![8, 16])),
            run_dp(&input(vec![[0.0, 9.0], [4.0, 1.0]], vec![16, 8])),
        ] {
            assert_eq!((out.labels_created, out.labels_pruned), (8, 4));
            let bounds: Vec<(f64, f64)> =
                out.candidates.iter().map(|c| (c.bound_bottleneck, c.bound_latency)).collect();
            assert_eq!(bounds, [(1.0, 10.5), (4.0, 2.5)]);
        }
    }

    // ------------------------------------------------------------------
    // Oracles: the sort and the staircase update the DP used before the
    // bit keys and the merge, against which both are checked.
    // ------------------------------------------------------------------

    /// The `partial_cmp` stable sort.
    fn partial_cmp_sort(cell: &mut [Label]) {
        cell.sort_by(|a, b| {
            a.maxt
                .partial_cmp(&b.maxt)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.lat.partial_cmp(&b.lat).unwrap_or(std::cmp::Ordering::Equal))
        });
    }

    /// Sequential insertion: one binary search and one splice per point.
    fn sequential_absorb(points: &mut Vec<(f64, f64)>, cell: &[(f64, f64)]) {
        for &(maxt, lat) in cell {
            let at = points.partition_point(|&(m, _)| m < maxt);
            // A point plainly dominated by a stored one answers no query
            // the stored one does not, and the points it plainly dominates
            // follow `at` contiguously.
            let shadowed = |&(m, lt): &(f64, f64)| m <= maxt && lt <= lat;
            if points[..at].last().is_some_and(shadowed) || points.get(at).is_some_and(shadowed) {
                continue;
            }
            let end = at + points[at..].partition_point(|&(_, lt)| lt >= lat);
            points.splice(at..end, [(maxt, lat)]);
        }
    }

    /// A bound on a coarse grid, so drawn values repeat and tie exactly.
    fn grid(k: u32) -> f64 {
        k as f64 * 0.1
    }

    /// Labels at drawn grid bounds, numbered in `picks[0]` in draw order.
    fn drawn_labels(drawn: &[(u32, u32)]) -> Vec<Label> {
        let label = |(i, &(m, l)): (usize, &(u32, u32))| {
            let mut label = Label { maxt: grid(m), lat: grid(l), ..Label::base(0) };
            label.picks[0] = i as u16;
            label
        };
        drawn.iter().enumerate().map(label).collect()
    }

    fn bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
        points.iter().map(|&(m, l)| (m.to_bits(), l.to_bits())).collect()
    }

    proptest::proptest! {
        #[test]
        fn the_merged_staircase_is_the_sequential_one(
            stored in proptest::collection::vec((0u32..12, 0u32..12), 0..24),
            drawn in proptest::collection::vec((0u32..12, 0u32..12), 0..24),
        ) {
            let mut staircase = Vec::new();
            let stored: Vec<(f64, f64)> = stored.iter().map(|&(m, l)| (grid(m), grid(l))).collect();
            sequential_absorb(&mut staircase, &stored);
            let mut cell = drawn_labels(&drawn);
            sort_by_bounds(&mut cell);
            let slack = Slack { bot: 0.0, lat: 0.0 };
            let mut acc = Accumulator { points: staircase.clone(), merged: Vec::new(), slack };
            acc.absorb(&cell);
            // In the cell's order and in reverse: insertion leaves the
            // same minimal points either way.
            let points: Vec<(f64, f64)> = cell.iter().map(|l| (l.maxt, l.lat)).collect();
            for order in [points.clone(), points.iter().rev().copied().collect()] {
                let mut oracle = staircase.clone();
                sequential_absorb(&mut oracle, &order);
                proptest::prop_assert_eq!(bits(&acc.points), bits(&oracle));
            }
        }

        #[test]
        fn the_bit_key_sort_is_the_partial_cmp_sort(
            drawn in proptest::collection::vec((0u32..6, 0u32..6), 0..64),
        ) {
            let (mut keyed, mut oracle) = (drawn_labels(&drawn), drawn_labels(&drawn));
            sort_by_bounds(&mut keyed);
            partial_cmp_sort(&mut oracle);
            let order = |cell: &[Label]| cell.iter().map(|l| l.picks[0]).collect::<Vec<_>>();
            proptest::prop_assert_eq!(order(&keyed), order(&oracle));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 128-node pool")]
    fn budget_beyond_the_pool_rejected() {
        search_structure(
            &MachineModel::paragon_hetero(),
            ShapeParams::paper_default(),
            IoStrategy::Embedded,
            TailStructure::Split,
            &[64],
            200,
            32,
            16,
        );
    }
}
