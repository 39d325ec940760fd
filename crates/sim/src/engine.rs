//! The multi-clock-domain simulation engine.
//!
//! Two interchangeable advancement strategies drive the same tick semantics:
//!
//! * **Cycle-stepped** (`SimConfig::batching = false`): every extended
//!   island ticks at every edge of its own clock, and every tick scans every
//!   switch port and every source NI of the island — the reference
//!   implementation.
//! * **Event-batched** (`SimConfig::batching = true`, the default): the
//!   simulator keeps, per extended island, the earliest tick at
//!   which the island could possibly act — the earliest `ready_ps` among
//!   queued flits, the next scheduled packet injection, or an NI backlog of
//!   staged flits — and the island clock jumps straight to it. Within a
//!   processed tick, switches with no ready head, idle ports and cores with
//!   nothing to inject are skipped in O(1).
//!
//! Batching is an *exact* optimization. A skipped tick is provably
//! action-free: its only effect in the stepped engine is advancing each
//! NI's round-robin pointer over its flows, and because that pointer
//! advances unconditionally once per local cycle it is a pure function of
//! the tick index (`(t/period − 1) mod n`), which the batched engine
//! evaluates in closed form instead. A switch's output ports need no such
//! order: within one tick, visiting them in any order leaves the same state
//! (see *Flat state*). Both strategies therefore produce **bit-identical**
//! [`SimStats`] — pinned by golden and property tests in
//! `crates/sim/tests/batching.rs`.
//!
//! Backpressure is covered by **wake lists** rather than busy-waiting: a
//! ready head stalled by a full downstream queue (and likewise an NI whose
//! candidate first-hop queues are all full) is *parked* — excluded from its
//! domain's next-event bound — and the full queue records the parked
//! upstream as a watcher. The unblocking pop is the only event that can
//! make the stalled retry succeed (a full queue cannot receive pushes, so
//! it stays full until its own pop; staging only shrinks by injection), so
//! the pop re-arms the watcher's domain at exactly the tick the stepped
//! engine's retry would first succeed at: the pop time itself when the
//! watcher is ordered after the popping domain (larger domain index, or a
//! later switch / the NI stage of the same domain's in-progress tick), else
//! the watcher's next edge strictly after the pop. A domain is therefore
//! silent iff the stepped engine would perform no state change on any of
//! its edges — saturated islands sleep between pops instead of degenerating
//! to cycle-stepping.
//!
//! # Flat state
//!
//! Both engines run on the same primitives over flat state:
//!
//! * **Queues by global queue id.** The output queues are one
//!   `Vec<VecDeque<Flit>>` indexed by global queue id (switch-major, see
//!   [`SimNetwork`]), the index the wake lists and parked flags also use. A
//!   flit carries its position in the network's concatenated route table,
//!   so a forwarding decision is one lookup of the next queue plus one of
//!   the popped queue's hop entry (its target, landing domain and delay).
//! * **Port order is free.** Within one tick, a switch's ports may forward
//!   in any order. A port's forward reads only its own head and the length
//!   of its next queue, which sits on the port's link target: never the
//!   switch itself (self-links do not exist), and a different target for
//!   every port that carries flits (`SimNetwork::build` routes each
//!   `(from, to)` pair over one port, and checks both in debug builds). What
//!   a forward writes is private to the port (its pop, its push) or a
//!   commutative fold (bounds, counters, wakes of other switches' ports and
//!   of NIs), so both engines visit a switch's ports in ascending order.
//! * **Staged packets.** A source NI's backlog is kept per flow as the
//!   injection instants of its whole packets, plus the number of flits left
//!   in the front packet; each flit is built when it enters the network.
//!   A core's flows are numbered as contiguous slots, and a slot's
//!   **staged** bit is set iff its flow has staged packets, so an NI's
//!   round-robin scan visits only the flows it can inject from.
//! * **Live-port bits.** Bit `g` is set iff queue `g` is non-empty and not
//!   parked. A switch's ports are a contiguous id range, and the batched
//!   switch stage walks only the set bits, ascending, reading each 64-bit
//!   word once. Skipping the clear bits is exact: forwarding from an empty
//!   queue is a no-op, and a parked head stays blocked until the pop that
//!   fires its wake (which sets its bit again). Reading a word once is
//!   exact because only the visited port's own bit can change during the
//!   scan: no switch pushes into or wakes its own queues.
//! * **Busy-core bits.** Cores are numbered domain by domain; a core's bit is
//!   set iff it has a staged backlog and its NI is not parked. When no core
//!   of the ticking domain is due to generate (its cached minimum next
//!   injection instant lies ahead), the core stage visits only the busy
//!   cores, in ascending order, and the domain is due again at the next
//!   edge if any core is still busy, else at that minimum.
//!
//! Every bitset spans as many 64-bit words as it needs. Debug builds assert,
//! after every batched tick, that the ticked domain's bits and minimum equal
//! the state they cache.

use crate::network::{PortTarget, SimNetwork};
use crate::stats::{FlowStats, SimStats};
use crate::traffic::{FlowGenerator, TrafficKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::ops::Range;
use vi_noc_core::Topology;
use vi_noc_soc::{FlowId, SocSpec};

/// Simulator parameters. The link width is not one of them: it is the
/// simulated topology's ([`Topology::link_width_bits`]), the width it was
/// synthesized for.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Packet payload size in bytes (flit count = size / the topology's
    /// link width).
    pub packet_bytes: usize,
    /// Output-queue capacity per port, flits.
    pub queue_capacity: usize,
    /// Injection process.
    pub traffic: TrafficKind,
    /// RNG seed (Poisson gaps, injection phases).
    pub seed: u64,
    /// Scale all flow bandwidths by this factor (1.0 = the spec's load).
    pub load_factor: f64,
    /// Advance island clocks event-to-event instead of cycle-by-cycle.
    ///
    /// Batching skips only ticks (and, within ticks, switches, ports and
    /// NIs) at which no flit can move and no packet can arrive, so the
    /// resulting [`SimStats`] are bit-identical to a cycle-stepped run.
    /// Disable it to run the reference stepper, as the equivalence tests
    /// do; this field is the only way to select it (no scenario member or
    /// CLI flag does, since no output can tell the two apart).
    pub batching: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_bytes: 64,
            queue_capacity: 8,
            traffic: TrafficKind::Cbr,
            seed: 0x51A1,
            load_factor: 1.0,
            batching: true,
        }
    }
}

/// A flit traversing the network.
#[derive(Debug, Clone, Copy)]
struct Flit {
    /// Time the packet entered the source NI, ps.
    injected_ps: u64,
    /// Earliest time the flit may leave its current queue, ps.
    ready_ps: u64,
    flow: u32,
    /// Position of the flit's current queue in [`SimNetwork::route`].
    pos: u32,
    is_tail: bool,
}

/// What a [`Simulator::forward_one`] attempt did to its queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForwardOutcome {
    /// Empty queue or head not ready yet — nothing to do at this tick.
    Idle,
    /// The head flit moved (ejected or pushed downstream).
    Moved,
    /// The head is ready but the downstream queue `next` (a global queue
    /// id) is full. Only this outcome parks a port on a wake list.
    Blocked { next: usize },
}

/// A parked upstream element registered on a full queue's wake list,
/// woken by the pop that makes its stalled retry able to succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiter {
    /// A blocked switch output port, by global queue id.
    Port(u32),
    /// A source core whose NI is parked, by core index. A core can watch
    /// several queues at once (one per backlogged flow), so its entries are
    /// validated against `parked_ni` when fired rather than kept exact.
    Core(u32),
}

/// A fixed-size set of small integers, one bit each, over as many 64-bit
/// words as it needs.
#[derive(Debug, Clone)]
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet(vec![0; n.div_ceil(64)])
    }

    #[cfg(debug_assertions)]
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }

    fn set(&mut self, i: usize, on: bool) {
        let (w, m) = (i / 64, 1u64 << (i % 64));
        if on {
            self.0[w] |= m;
        } else {
            self.0[w] &= !m;
        }
    }
}

/// An ascending walk over the members of a [`BitSet`] within a range,
/// reading each 64-bit word once, when the walk reaches it. The set is
/// passed to every step, so the caller may mutate it between steps. The
/// walk misses a change to any bit of a word it has read; every caller
/// changes only the member it was just given, which the walk has passed.
struct Members {
    /// Word the walk is in.
    w: usize,
    /// Members of word `w` not yet visited, masked to the range.
    bits: u64,
    end: usize,
}

impl Members {
    fn new(set: &BitSet, r: Range<usize>) -> Self {
        let w = r.start / 64;
        let bits = if r.is_empty() {
            0
        } else {
            set.0[w] & (u64::MAX << (r.start % 64)) & below(r.end - w * 64)
        };
        Members {
            w,
            bits,
            end: r.end,
        }
    }

    fn next(&mut self, set: &BitSet) -> Option<usize> {
        while self.bits == 0 {
            self.w += 1;
            if self.w * 64 >= self.end {
                return None;
            }
            self.bits = set.0[self.w] & below(self.end - self.w * 64);
        }
        let i = self.w * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

/// The mask of a word's bits below `n` (all of them from 64 on).
fn below(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

impl Simulator {
    /// Folds a newly materialized future event of domain `dd` — a pushed
    /// flit becoming ready, a wake re-arming a parked element — into the
    /// domain's [`Self::next_event`] entry in O(1). Pushes and wakes only
    /// ever move a domain's next event *earlier*, so a monotone `min`
    /// against the first grid tick covering `at_ps` keeps the entry exact
    /// without a [`Self::compute_next_event`] rescan. A gated domain stays
    /// pinned at `u64::MAX`: a stray push into it (an in-flight flit of a
    /// deactivated flow, frozen as under the stepped engine) must not
    /// re-arm it. A stepped run never reads the entries; they start at 0,
    /// so its folds return at the precheck.
    fn fold_event(&mut self, dd: usize, at_ps: u64) {
        // The rounded-up tick can only improve the entry if the raw instant
        // already undercuts it, so the precheck skips the division on the
        // common path (the domain already has something earlier to do).
        if at_ps >= self.next_event[dd] || !self.island_on[dd] {
            return;
        }
        let e = tick_at_or_after(self.next_tick[dd], self.net.period_ps[dd], at_ps);
        if e < self.next_event[dd] {
            self.next_event[dd] = e;
        }
    }
}

/// First tick of the grid `{t0, t0+p, t0+2p, …}` at or after `ready_ps`.
fn tick_at_or_after(t0: u64, p: u64, ready_ps: u64) -> u64 {
    if ready_ps <= t0 {
        t0
    } else {
        t0 + (ready_ps - t0).div_ceil(p) * p
    }
}

/// Integer time at/after the float instant `ps`, saturating distant values
/// (idle flows, `+inf` for deactivated ones) to `u64::MAX`.
///
/// [`Simulator::generate_arrivals`] fires a generator at tick `T` iff
/// `next_ps <= T as f64`; for the tick magnitudes a run can reach (far
/// below 2^53, where every `u64 → f64` cast is exact) that is equivalent to
/// `ceil(next_ps) <= T`, so the scheduler can compare pre-ceiled integers
/// instead of re-deriving float grid crossings on every lookup.
fn ceil_ps(ps: f64) -> u64 {
    if ps >= (u64::MAX / 4) as f64 {
        u64::MAX
    } else {
        ps.max(0.0).ceil() as u64
    }
}

/// The flit-level simulator.
///
/// Every island ticks at its own clock period; each switch output port
/// forwards at most one flit per local cycle; enqueueing into a full
/// downstream queue stalls (credit-style backpressure); island-crossing hops
/// add the 4-cycle bi-synchronous dwell in the reader's domain.
#[derive(Debug)]
pub struct Simulator {
    net: SimNetwork,
    cfg: SimConfig,
    rng: StdRng,
    /// Output queues by global queue id.
    queues: Vec<VecDeque<Flit>>,
    /// Per flow: injection instants (ps) of the packets staged at the
    /// source NI and not yet fully injected, front first.
    staged: Vec<VecDeque<u64>>,
    /// Per flow: flits of the front staged packet still to inject
    /// (`flits_per_packet` while nothing is staged).
    front_left: Vec<u32>,
    generators: Vec<FlowGenerator>,
    /// Round-robin pointer over flows per source core (stepped mode only;
    /// the batched mode derives it from the tick index in closed form).
    inj_rr: Vec<usize>,
    /// Flows grouped by source core, ascending, one *slot* each: core `ci`
    /// owns the slots `flow_start[ci]..flow_start[ci + 1]` (each core's NI
    /// injects one flit per island cycle across its flows).
    core_flows: Vec<u32>,
    /// Offset of each core's slots in [`Self::core_flows`], plus the total.
    flow_start: Vec<usize>,
    /// Global id of the first-hop queue of each slot's flow.
    first_hop: Vec<u32>,
    /// Bit `s` is set iff slot `s`'s flow has staged packets. Exact at all
    /// times.
    staged_flows: BitSet,
    /// Source core of each flow.
    core_of_flow: Vec<u32>,
    /// Switch indices grouped by extended island, ascending.
    switches_by_domain: Vec<Vec<u32>>,
    /// Core indices grouped by extended island, ascending within each:
    /// domain `d` owns `domain_cores[core_start[d]..core_start[d + 1]]`.
    /// Busy bits are numbered by position in this array.
    domain_cores: Vec<u32>,
    /// Offset of each domain's cores in [`Self::domain_cores`], plus the
    /// total.
    core_start: Vec<usize>,
    /// Position of each core in [`Self::domain_cores`].
    core_rank: Vec<u32>,
    /// Lower bound on the earliest `ready_ps` among a switch's *unblocked*
    /// queue heads (`u64::MAX` = believed empty or entirely parked).
    /// Maintained as a stale-low bound: pushes fold their flit in
    /// immediately; pops leave it untouched (the true minimum can only
    /// rise); each batched visit recomputes it exactly while it scans the
    /// live ports anyway. Parked heads are deliberately left out — they are
    /// ready but provably unable to move until the pop that fires their
    /// wake, which folds them back in (`fire_wakes`). The bound never
    /// exceeds the true minimum over actionable heads, so skipping a switch
    /// with `bound > now` is safe; a low bound merely costs a no-op visit.
    min_head_ready: Vec<u64>,
    /// Earliest `next_injection_ps` among each core's active generators,
    /// rounded up to integer picoseconds (`u64::MAX` when all are
    /// deactivated). Exact at all times.
    gen_next_ps: Vec<u64>,
    /// Minimum of `gen_next_ps` over each domain's cores. Exact during a
    /// batched run: computed at `run_batched` entry and refreshed by every
    /// core stage that generates, the only code that moves a core's next
    /// injection mid-run.
    domain_gen_next: Vec<u64>,
    /// Staged (NI-backlogged) flits per source core. Exact at all times.
    staged_cnt: Vec<u64>,
    /// Bit `g` is set iff queue `g` is non-empty and not parked. Exact at
    /// all times; switch `si`'s bits are the range `net.ports(si)`.
    live: BitSet,
    /// Bit `core_rank[ci]` is set iff core `ci` has a staged backlog and
    /// its NI is not parked. Exact at all times.
    busy: BitSet,
    /// Next tick per extended island, ps.
    next_tick: Vec<u64>,
    /// `next_tick / period_ps` per extended island, maintained
    /// incrementally by the batched engine so the closed-form NI
    /// round-robin starts need no per-tick division. Recomputed from
    /// `next_tick` at every `run_batched` entry (the stepped engine advances
    /// `next_tick` without touching this).
    tick_idx: Vec<u64>,
    island_on: Vec<bool>,
    /// The batched engine's scheduler: per extended island, the earliest
    /// tick (an absolute time on the island's clock grid) at which it could
    /// act, `u64::MAX` when it is idle under its current state or gated.
    /// Set for every domain at `run_batched` entry, refreshed in place by
    /// each of the domain's own ticks, and lowered by [`Self::fold_event`]
    /// when another domain pushes into its queues or wakes it.
    next_event: Vec<u64>,
    /// Wake list per global queue id: parked upstream elements to re-arm
    /// when the (full) queue pops. Non-empty only in batched mode, and only
    /// while the queue is full — the first pop drains the whole list.
    waiters: Vec<Vec<Waiter>>,
    /// Recycled backing buffer for draining a wake list: `fire_wakes`
    /// swaps it in for the fired list so neither side reallocates in
    /// steady state (a `mem::take` would leave the queue's list with zero
    /// capacity, costing one heap allocation per park/wake cycle).
    wake_scratch: Vec<Waiter>,
    /// Whether the switch output port with this global queue id is parked
    /// (ready head excluded from `min_head_ready` and from the live bits,
    /// one `Waiter::Port` registered downstream). Exact: set on park,
    /// cleared by the wake.
    parked_port: Vec<bool>,
    /// Whether this core's NI is parked (staged backlog excluded from the
    /// busy bits). Set when an injection scan finds every candidate
    /// first-hop queue full; cleared by a wake, a successful injection, or
    /// re-validated after a generation event.
    parked_ni: Vec<bool>,
    /// Domain ticks actually processed (either engine). Not part of
    /// [`SimStats`] — the whole point of batching is that this differs
    /// across modes while the stats do not — but exposed for perf
    /// regression tests that must not depend on wall clocks.
    ticks_processed: u64,
    now_ps: u64,
    flits_per_packet: u32,
    stats: SimStats,
}

impl Simulator {
    /// Builds a simulator for `topo` carrying the traffic of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the topology does not route every flow of `spec`, or if
    /// its link width is zero.
    pub fn new(spec: &SocSpec, topo: &Topology, cfg: &SimConfig) -> Self {
        let net = SimNetwork::build(spec, topo);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let flits_per_packet = (cfg.packet_bytes * 8)
            .div_ceil(topo.link_width_bits())
            .max(1) as u32;

        let mut flows_by_core = vec![Vec::new(); spec.core_count()];
        let mut core_of_flow = Vec::with_capacity(spec.flow_count());
        let mut generators = Vec::with_capacity(spec.flow_count());
        for fid in spec.flow_ids() {
            let f = spec.flow(fid);
            use rand::RngExt;
            let phase: f64 = rng.random::<f64>();
            generators.push(FlowGenerator::new(
                f.bandwidth.bytes_per_s() * cfg.load_factor,
                cfg.packet_bytes as f64,
                phase,
                cfg.traffic,
            ));
            flows_by_core[f.src.index()].push(fid.index() as u32);
            core_of_flow.push(f.src.index() as u32);
            // The first hop of every route must sit on the source core's own
            // switch — flits are injected there by the core's NI.
            assert_eq!(
                net.port_owner[net.route(fid)[0] as usize].0 as usize,
                net.switch_of_core[f.src.index()],
                "flow {fid}: route does not start at the source core's switch"
            );
        }

        let n_domains = net.period_ps.len();
        let n_switches = net.switch_count();
        let n_cores = spec.core_count();
        let mut switches_by_domain = vec![Vec::new(); n_domains];
        for (si, &d) in net.switch_domain.iter().enumerate() {
            switches_by_domain[d].push(si as u32);
        }
        let mut domain_cores = Vec::with_capacity(n_cores);
        let mut core_start = Vec::with_capacity(n_domains + 1);
        let mut core_rank = vec![0; n_cores];
        for d in 0..n_domains {
            core_start.push(domain_cores.len());
            for (ci, _) in net
                .island_of_core
                .iter()
                .enumerate()
                .filter(|&(_, &i)| i == d)
            {
                core_rank[ci] = domain_cores.len() as u32;
                domain_cores.push(ci as u32);
            }
        }
        core_start.push(domain_cores.len());
        let mut flow_start = Vec::with_capacity(n_cores + 1);
        let mut core_flows = Vec::with_capacity(spec.flow_count());
        for flows in &flows_by_core {
            flow_start.push(core_flows.len());
            core_flows.extend(flows);
        }
        flow_start.push(core_flows.len());
        let first_hop = core_flows
            .iter()
            .map(|&fi| net.route[net.route_start[fi as usize] as usize])
            .collect();
        let mut sim = Simulator {
            inj_rr: vec![0; n_cores],
            core_flows,
            flow_start,
            first_hop,
            staged_flows: BitSet::new(spec.flow_count()),
            core_of_flow,
            switches_by_domain,
            domain_cores,
            core_start,
            core_rank,
            min_head_ready: vec![u64::MAX; n_switches],
            gen_next_ps: vec![u64::MAX; n_cores],
            domain_gen_next: vec![u64::MAX; n_domains],
            staged_cnt: vec![0; n_cores],
            live: BitSet::new(net.port_count()),
            busy: BitSet::new(n_cores),
            staged: vec![VecDeque::new(); spec.flow_count()],
            front_left: vec![flits_per_packet; spec.flow_count()],
            generators,
            queues: vec![VecDeque::new(); net.port_count()],
            next_tick: net.period_ps.clone(),
            tick_idx: vec![1; n_domains],
            island_on: vec![true; n_domains],
            next_event: vec![0; n_domains],
            waiters: vec![Vec::new(); net.port_count()],
            wake_scratch: Vec::new(),
            parked_port: vec![false; net.port_count()],
            parked_ni: vec![false; n_cores],
            ticks_processed: 0,
            now_ps: 0,
            flits_per_packet,
            stats: SimStats {
                flows: vec![FlowStats::default(); spec.flow_count()],
                elapsed_ps: 0,
                flits_in_flight: 0,
                switch_flits: vec![0; n_switches],
            },
            net,
            cfg: cfg.clone(),
            rng,
        };
        for ci in 0..n_cores {
            sim.refresh_gen_next(ci);
        }
        sim
    }

    /// Current simulated time, ps.
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// Flits per packet under the configured packet size and link width.
    pub fn flits_per_packet(&self) -> u32 {
        self.flits_per_packet
    }

    /// Domain ticks processed so far (cumulative across runs).
    ///
    /// This is the engine's deterministic work metric: the batched engine
    /// must process strictly fewer ticks than the stepped reference on any
    /// workload with idle or blocked spans, and the wake-list perf tests
    /// assert on the ratio instead of on wall-clock time.
    pub fn ticks_processed(&self) -> u64 {
        self.ticks_processed
    }

    /// Stops injection of `flow` (used by shutdown scenarios).
    pub fn deactivate_flow(&mut self, flow: FlowId) {
        self.generators[flow.index()].active = false;
        self.refresh_gen_next(self.core_of_flow[flow.index()] as usize);
    }

    /// Power-gates extended island `island_ext`: its switches stop ticking.
    ///
    /// # Panics
    ///
    /// Panics if flits are still queued in the island (gate only after
    /// draining — the scenario driver handles this).
    pub fn gate_island(&mut self, island_ext: usize) {
        for &si in &self.switches_by_domain[island_ext] {
            let queued: usize = self
                .net
                .ports(si as usize)
                .map(|g| self.queues[g].len())
                .sum();
            assert_eq!(
                queued, 0,
                "island {island_ext} gated with {queued} flits in switch {si}"
            );
        }
        self.island_on[island_ext] = false;
    }

    /// Returns `true` if no flits remain queued in the switches of extended
    /// island `island_ext` (the pre-condition for gating it).
    pub fn island_drained(&self, island_ext: usize) -> bool {
        self.switches_by_domain[island_ext].iter().all(|&si| {
            self.net
                .ports(si as usize)
                .all(|g| self.queues[g].is_empty())
        })
    }

    /// Runs for `ns` nanoseconds from the current time, returning a
    /// snapshot of the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the new time does not fit a `u64` of picoseconds.
    pub fn run_for_ns(&mut self, ns: u64) -> SimStats {
        let deadline_ps = ns
            .checked_mul(1_000)
            .and_then(|ps| ps.checked_add(self.now_ps))
            .expect("simulated time fits a u64 of picoseconds");
        if self.cfg.batching {
            self.run_batched(deadline_ps);
        } else {
            self.run_stepped(deadline_ps);
        }
        self.now_ps = deadline_ps;
        self.snapshot()
    }

    /// The reference stepper: every live domain ticks at every clock edge.
    fn run_stepped(&mut self, deadline_ps: u64) {
        while let Some((t, domains)) = self.earliest_tick(deadline_ps) {
            self.now_ps = t;
            for d in domains {
                self.tick_domain_stepped(d);
                self.next_tick[d] += self.net.period_ps[d];
                self.ticks_processed += 1;
            }
        }
    }

    /// The batched stepper: every live domain jumps straight from one
    /// interaction tick to the next.
    fn run_batched(&mut self, deadline_ps: u64) {
        let n_domains = self.next_tick.len();
        // Public state may have changed between runs (deactivated flows,
        // gated islands), so trust nothing from the previous call: recompute
        // every live domain's next event up front. Gated domains are pinned
        // at `u64::MAX`, and `fold_event` leaves them there. Mid-run, ticks
        // refresh their own entry in place and pushes/wakes fold
        // monotonically.
        for d in 0..n_domains {
            self.tick_idx[d] = self.next_tick[d] / self.net.period_ps[d];
            self.domain_gen_next[d] = self.min_gen_next(d);
            self.next_event[d] = if self.island_on[d] {
                self.compute_next_event(d)
            } else {
                u64::MAX
            };
        }
        loop {
            // Pick the single lexicographically earliest `(time, domain)`
            // tick — the exact order the stepped engine processes
            // same-timestamp domains in (ascending index). Ticks are taken
            // one at a time rather than batched per timestamp because a pop
            // inside this tick may wake a *higher-indexed* domain at the
            // same timestamp (the stepped engine's retry there happens
            // after this whole tick); the next pass picks that wake up
            // naturally. A tick can never create an action at `t` for a
            // lower-indexed domain: pushed flits become ready two
            // downstream cycles later, and wakes to lower-indexed domains
            // target `t + 1`.
            let mut t = u64::MAX;
            let mut dom = usize::MAX;
            for (d, &e) in self.next_event.iter().enumerate() {
                if e < t {
                    t = e;
                    dom = d;
                }
            }
            if t >= deadline_ps {
                break;
            }
            self.now_ps = t;
            let p = self.net.period_ps[dom];
            debug_assert!(t >= self.next_tick[dom] && (t - self.next_tick[dom]) % p == 0);
            // Catch the tick index up over the grid edges the domain slept
            // through (the division is exact — both instants sit on the
            // grid — and is skipped entirely for back-to-back ticks).
            if t > self.next_tick[dom] {
                self.tick_idx[dom] += (t - self.next_tick[dom]) / p;
            }
            self.tick_domain_batched(dom, t);
            #[cfg(debug_assertions)]
            self.assert_cached_sets(dom);
            self.next_tick[dom] = t + p;
            self.tick_idx[dom] += 1;
            self.next_event[dom] = self.compute_next_event(dom);
            self.ticks_processed += 1;
        }
        // The stepped engine keeps ticking (idly) up to the deadline; only
        // the clock positions survive of that — the NI round-robin pointers
        // are functions of the tick index, not state.
        for d in 0..n_domains {
            if self.island_on[d] && self.next_tick[d] < deadline_ps {
                self.next_tick[d] =
                    tick_at_or_after(self.next_tick[d], self.net.period_ps[d], deadline_ps);
            }
        }
    }

    /// Indices of domain `d`'s cores, ascending.
    fn domain_core_ids(&self, d: usize) -> impl Iterator<Item = usize> + '_ {
        self.domain_cores[self.core_start[d]..self.core_start[d + 1]]
            .iter()
            .map(|&ci| ci as usize)
    }

    /// Earliest `gen_next_ps` among domain `d`'s cores.
    fn min_gen_next(&self, d: usize) -> u64 {
        self.domain_core_ids(d)
            .map(|ci| self.gen_next_ps[ci])
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Asserts that domain `d`'s live-port bits, busy-core bits, staged-flow
    /// bits and minimum next injection instant equal the state they cache.
    #[cfg(debug_assertions)]
    fn assert_cached_sets(&self, d: usize) {
        for &si in &self.switches_by_domain[d] {
            for g in self.net.ports(si as usize) {
                assert_eq!(
                    self.live.get(g),
                    !self.queues[g].is_empty() && !self.parked_port[g],
                    "live bit of queue {g}"
                );
            }
        }
        for ci in self.domain_core_ids(d) {
            assert_eq!(
                self.busy.get(self.core_rank[ci] as usize),
                self.staged_cnt[ci] > 0 && !self.parked_ni[ci],
                "busy bit of core {ci}"
            );
            for s in self.core_slots(ci) {
                let fi = self.core_flows[s] as usize;
                assert_eq!(
                    self.staged_flows.get(s),
                    !self.staged[fi].is_empty(),
                    "staged bit of flow {fi}"
                );
            }
        }
        assert_eq!(
            self.domain_gen_next[d],
            self.min_gen_next(d),
            "domain {d} next injection"
        );
    }

    /// Earliest tick at which domain `d` could act under its current state:
    /// the next tick outright if an NI has an unparked staged backlog, else
    /// the first tick at/after the earliest *unblocked* queued flit's
    /// `ready_ps` or the earliest scheduled packet injection. Parked
    /// elements — ready heads stalled by full downstream queues, NIs whose
    /// every candidate first-hop queue is full — are excluded: their
    /// stepped-engine retries provably fail until the unblocking pop, and
    /// the pop's wake (`fire_wakes`) re-arms this domain at exactly the
    /// first tick a retry can succeed at. A domain whose only ready work is
    /// blocked therefore reports `u64::MAX` and sleeps between pops. The
    /// batched engine evaluates it for every live domain when a run starts
    /// and for a domain after each of its ticks.
    fn compute_next_event(&self, d: usize) -> u64 {
        let t0 = self.next_tick[d];
        if self.any_busy(d) {
            return t0;
        }
        let mut e_ps = self.domain_gen_next[d];
        for &si in &self.switches_by_domain[d] {
            e_ps = e_ps.min(self.min_head_ready[si as usize]);
        }
        // One grid conversion for the whole domain: min and "round up to
        // the next tick" commute.
        if e_ps == u64::MAX {
            u64::MAX
        } else {
            tick_at_or_after(t0, self.net.period_ps[d], e_ps)
        }
    }

    /// Whether any core of domain `d` has an unparked staged backlog.
    fn any_busy(&self, d: usize) -> bool {
        let r = self.core_start[d]..self.core_start[d + 1];
        Members::new(&self.busy, r).next(&self.busy).is_some()
    }

    /// Core `ci`'s flow slots (see [`Self::core_flows`]).
    fn core_slots(&self, ci: usize) -> Range<usize> {
        self.flow_start[ci]..self.flow_start[ci + 1]
    }

    fn earliest_tick(&self, deadline_ps: u64) -> Option<(u64, Vec<usize>)> {
        let mut t = u64::MAX;
        for (d, &next) in self.next_tick.iter().enumerate() {
            if self.island_on[d] && next < t {
                t = next;
            }
        }
        if t >= deadline_ps || t == u64::MAX {
            return None;
        }
        let domains: Vec<usize> = (0..self.next_tick.len())
            .filter(|&d| self.island_on[d] && self.next_tick[d] == t)
            .collect();
        Some((t, domains))
    }

    /// One clock edge of every switch (and source NI) in domain `d` — the
    /// reference path: visit every port and every core, and advance the NI
    /// round-robin pointers eagerly.
    fn tick_domain_stepped(&mut self, d: usize) {
        let t = self.now_ps;
        // Switch output stage: each port forwards at most one ready flit.
        for i in 0..self.switches_by_domain[d].len() {
            let si = self.switches_by_domain[d][i] as usize;
            for g in self.net.ports(si) {
                self.forward_one(si, g, t);
            }
        }
        // Injection stage: one flit per source *core* per cycle (each core
        // has its own NI link), taken round-robin over the core's flows.
        for r in self.core_start[d]..self.core_start[d + 1] {
            let ci = self.domain_cores[r] as usize;
            self.generate_arrivals(ci, t);
            self.inject_one(ci, t);
        }
    }

    /// One clock edge of domain `d` at tick time `t`, skipping every switch
    /// with no possibly-ready head, every port whose live bit is clear, and
    /// — when no core of the domain is due to generate — every core whose
    /// busy bit is clear. The NI round-robin starts are derived from the
    /// tick index `t / period` in closed form, so skipped cores need no
    /// pointer bookkeeping — their state is untouched by an idle cycle.
    fn tick_domain_batched(&mut self, d: usize, t: u64) {
        let idx = self.tick_idx[d];
        debug_assert_eq!(idx, t / self.net.period_ps[d]);
        for i in 0..self.switches_by_domain[d].len() {
            let si = self.switches_by_domain[d][i] as usize;
            if self.min_head_ready[si] > t {
                continue;
            }
            // Recompute the bound exactly while scanning; same-tick pushes
            // from other switches fold themselves in through `forward_one`.
            // Only the visited port's own bit can change during the scan,
            // so each word of live bits is read once.
            self.min_head_ready[si] = u64::MAX;
            let mut live = Members::new(&self.live, self.net.ports(si));
            while let Some(g) = live.next(&self.live) {
                self.visit_port(si, g, t);
            }
        }
        let (c0, c1) = (self.core_start[d], self.core_start[d + 1]);
        if self.domain_gen_next[d] <= t {
            for r in c0..c1 {
                let ci = self.domain_cores[r] as usize;
                let generated = self.gen_next_ps[ci] <= t;
                if generated {
                    self.generate_arrivals(ci, t);
                }
                // A parked NI retries only after a generation event (freshly
                // staged flows may target a non-full queue) or its wake (the
                // pop of a watched queue, fired earlier in this very tick by
                // this domain's own switch stage — first-hop queues live on
                // the core's own switch). In between, stepped retries
                // provably fail: staging only shrinks by injection and the
                // watched queues stay full until they pop.
                if self.staged_cnt[ci] > 0 && (generated || !self.parked_ni[ci]) {
                    self.inject_batched(ci, idx, t);
                }
            }
            self.domain_gen_next[d] = self.min_gen_next(d);
        } else {
            // No core is due to generate, so only the busy ones can act.
            // Injection never pops, so no wake can change another core's
            // bit during this walk.
            let mut busy = Members::new(&self.busy, c0..c1);
            while let Some(r) = busy.next(&self.busy) {
                self.inject_batched(self.domain_cores[r] as usize, idx, t);
            }
        }
    }

    /// One batched visit of live queue `g` of switch `si`: forward its
    /// head, parking the port if the head is blocked, else folding the
    /// (new) head into the switch's bound. A blocked head is parked instead
    /// of folded: it cannot move before the pop that fires its wake, and
    /// the wake restores it.
    fn visit_port(&mut self, si: usize, g: usize, t: u64) {
        match self.forward_one(si, g, t) {
            ForwardOutcome::Blocked { next } => self.park_port(g, next),
            ForwardOutcome::Idle | ForwardOutcome::Moved => {
                if let Some(head) = self.queues[g].front() {
                    self.min_head_ready[si] = self.min_head_ready[si].min(head.ready_ps);
                }
            }
        }
    }

    /// Moves packets whose injection time has come into the staging queue.
    fn generate_arrivals(&mut self, ci: usize, t: u64) {
        let mut staged = 0u64;
        for s in self.core_slots(ci) {
            let fi = self.core_flows[s] as usize;
            let g = &mut self.generators[fi];
            while g.active && g.next_ps <= t as f64 {
                self.staged[fi].push_back(g.next_ps.max(0.0) as u64);
                self.staged_flows.set(s, true);
                staged += u64::from(self.flits_per_packet);
                self.stats.flows[fi].injected_packets += 1;
                g.schedule_next(&mut self.rng);
            }
        }
        if staged > 0 {
            self.staged_cnt[ci] += staged;
            self.refresh_gen_next(ci);
            self.update_busy(ci);
        }
    }

    /// Recomputes the cached earliest injection instant of core `ci`.
    fn refresh_gen_next(&mut self, ci: usize) {
        let mut next = f64::INFINITY;
        for &fi in &self.core_flows[self.core_slots(ci)] {
            if let Some(ps) = self.generators[fi as usize].next_injection_ps() {
                next = next.min(ps);
            }
        }
        self.gen_next_ps[ci] = ceil_ps(next);
    }

    /// Re-derives core `ci`'s busy bit from its backlog and parked flag.
    fn update_busy(&mut self, ci: usize) {
        self.busy.set(
            self.core_rank[ci] as usize,
            self.staged_cnt[ci] > 0 && !self.parked_ni[ci],
        );
    }

    /// Moves one staged flit of core `ci` into its switch's first-hop queue
    /// (stepped path: consume and advance the round-robin pointer).
    fn inject_one(&mut self, ci: usize, t: u64) {
        let n = self.core_slots(ci).len();
        if n == 0 {
            return;
        }
        let start = self.inj_rr[ci];
        self.inj_rr[ci] = (start + 1) % n;
        self.inject_from(ci, start, t, false);
    }

    /// Moves one staged flit of core `ci` into its switch's first-hop queue
    /// (batched path: the round-robin start in closed form from the tick
    /// index `idx`, parking the NI if every candidate queue is full).
    fn inject_batched(&mut self, ci: usize, idx: u64, t: u64) {
        let n = self.core_slots(ci).len();
        let start = if n > 1 {
            ((idx - 1) % n as u64) as usize
        } else {
            0
        };
        self.inject_from(ci, start, t, true);
    }

    /// Moves one staged flit of core `ci` into its switch's first-hop
    /// queue, trying the core's flows with staged packets round-robin from
    /// its `start`-th flow. The flit is built here, from its packet's
    /// injection instant and the number of flits the packet has left.
    ///
    /// With `park` set (the batched path), a fully blocked scan — some flow
    /// has staged flits but every such flow's first-hop queue is full —
    /// parks the NI on the wake lists of those queues instead of leaving
    /// the core to busy-wait.
    fn inject_from(&mut self, ci: usize, start: usize, t: u64, park: bool) {
        let slots = self.core_slots(ci);
        let pivot = slots.start + start;
        for r in [pivot..slots.end, slots.start..pivot] {
            let mut staged = Members::new(&self.staged_flows, r);
            while let Some(s) = staged.next(&self.staged_flows) {
                let g = self.first_hop[s] as usize;
                if self.queues[g].len() < self.cfg.queue_capacity {
                    self.inject_flit(ci, s, g, t);
                    return;
                }
            }
        }
        if park && self.staged_cnt[ci] > 0 {
            self.park_ni(ci);
        }
    }

    /// Moves the next staged flit of slot `s` (a flow of core `ci`) into
    /// its first-hop queue `g`, which has room.
    fn inject_flit(&mut self, ci: usize, s: usize, g: usize, t: u64) {
        let fi = self.core_flows[s] as usize;
        let injected_ps = self.staged[fi][0];
        let is_tail = self.front_left[fi] == 1;
        if is_tail {
            self.staged[fi].pop_front();
            self.front_left[fi] = self.flits_per_packet;
            if self.staged[fi].is_empty() {
                self.staged_flows.set(s, false);
            }
        } else {
            self.front_left[fi] -= 1;
        }
        let si = self.net.switch_of_core[ci];
        let flit = Flit {
            injected_ps,
            // NI link + switch traversal before the flit may leave.
            ready_ps: t + self.net.inject_delay_ps(si),
            flow: fi as u32,
            pos: self.net.route_start[fi],
            is_tail,
        };
        self.push_flit(si, g, flit);
        self.staged_cnt[ci] -= 1;
        self.parked_ni[ci] = false;
        self.update_busy(ci);
    }

    /// Parks core `ci`'s NI: every flow with staged flits found its
    /// first-hop queue full, so retries cannot succeed until one of those
    /// queues pops (or a generation event stages a flow with a different
    /// first hop — `tick_domain_batched` re-validates on generation).
    /// Registers one watcher per distinct full queue; `contains` dedups
    /// against entries left from earlier parks of the same core.
    fn park_ni(&mut self, ci: usize) {
        self.parked_ni[ci] = true;
        self.update_busy(ci);
        let mut staged = Members::new(&self.staged_flows, self.core_slots(ci));
        while let Some(s) = staged.next(&self.staged_flows) {
            let g = self.first_hop[s] as usize;
            debug_assert!(self.queues[g].len() >= self.cfg.queue_capacity);
            let w = Waiter::Core(ci as u32);
            if !self.waiters[g].contains(&w) {
                self.waiters[g].push(w);
            }
        }
    }

    /// Parks output queue `g`: its ready head is stalled by the full queue
    /// `next`, so it leaves the live bits and `min_head_ready` until that
    /// queue's pop fires the wake. Only live (hence unparked) queues are
    /// visited, so a port is never parked twice.
    fn park_port(&mut self, g: usize, next: usize) {
        debug_assert!(!self.parked_port[g]);
        self.parked_port[g] = true;
        self.live.set(g, false);
        self.waiters[next].push(Waiter::Port(g as u32));
    }

    /// Enqueues `flit` at queue `g` of switch `si`, folding it into the
    /// switch's head-readiness bound. A queue that was empty cannot be
    /// parked, so it turns live.
    #[inline(always)]
    fn push_flit(&mut self, si: usize, g: usize, flit: Flit) {
        self.min_head_ready[si] = self.min_head_ready[si].min(flit.ready_ps);
        if self.queues[g].is_empty() {
            self.live.set(g, true);
        }
        self.queues[g].push_back(flit);
    }

    /// Forwards the head flit of queue `g` (owned by switch `si`), if ready
    /// and accepted. Every pop fires the queue's wake list — the pop is the
    /// one event that can unblock a parked watcher.
    #[inline(always)]
    fn forward_one(&mut self, si: usize, g: usize, t: u64) -> ForwardOutcome {
        let Some(&head) = self.queues[g].front() else {
            return ForwardOutcome::Idle;
        };
        if head.ready_ps > t {
            return ForwardOutcome::Idle;
        }
        let hop = self.net.hops[g];
        let downstream = match hop.target {
            PortTarget::Eject => None,
            PortTarget::Link { to } => {
                let next = self.net.route[head.pos as usize + 1] as usize;
                if self.queues[next].len() >= self.cfg.queue_capacity {
                    return ForwardOutcome::Blocked { next };
                }
                Some((to as usize, next))
            }
        };
        self.queues[g].pop_front();
        if self.queues[g].is_empty() {
            self.live.set(g, false);
        }
        self.fire_wakes(si, g, t);
        self.stats.switch_flits[si] += 1;
        // Ejection: the final NI link. A link: link + downstream switch
        // traversal + converter dwell.
        let ready = t + hop.delay_ps;
        match downstream {
            None => {
                if head.is_tail {
                    let latency = ready - head.injected_ps;
                    let fs = &mut self.stats.flows[head.flow as usize];
                    fs.delivered_packets += 1;
                    fs.total_latency_ps += latency as u128;
                    fs.max_latency_ps = fs.max_latency_ps.max(latency);
                }
            }
            Some((to, next)) => {
                let flit = Flit {
                    ready_ps: ready,
                    pos: head.pos + 1,
                    ..head
                };
                self.push_flit(to, next, flit);
                // The receiving domain's next event must cover the new
                // flit; a push only moves it earlier, so an O(1) fold
                // suffices (no rescan).
                self.fold_event(hop.dom as usize, ready);
            }
        }
        ForwardOutcome::Moved
    }

    /// Re-arms everything parked on queue `g` (owned by switch `si`) after
    /// its pop. Port watchers turn live again and fold their (still ready,
    /// still present) head back into `min_head_ready`; core watchers are
    /// validated against `parked_ni` (a core watches one queue per
    /// backlogged flow, and an earlier wake or successful injection leaves
    /// the other entries stale). Each woken element's domain is then
    /// rescheduled by [`Self::wake_domain`].
    fn fire_wakes(&mut self, si: usize, g: usize, t: u64) {
        if self.waiters[g].is_empty() {
            return;
        }
        let popper = self.net.switch_domain[si];
        // Swap in the recycled buffer so the drained list keeps its backing
        // capacity for the next park (allocation-free in steady state).
        let list = std::mem::replace(&mut self.waiters[g], std::mem::take(&mut self.wake_scratch));
        for &w in &list {
            match w {
                Waiter::Port(blocked) => {
                    let blocked = blocked as usize;
                    debug_assert!(self.parked_port[blocked]);
                    self.parked_port[blocked] = false;
                    self.live.set(blocked, true);
                    let usi = self.net.port_owner[blocked].0 as usize;
                    // A parked head cannot have moved (its only exit is the
                    // pop this wake precedes) and pushes land behind it, so
                    // it is still the head, still ready.
                    let ready = self.queues[blocked].front().expect("parked head").ready_ps;
                    debug_assert!(ready <= t);
                    self.min_head_ready[usi] = self.min_head_ready[usi].min(ready);
                    self.wake_domain(self.net.switch_domain[usi], popper, t);
                }
                Waiter::Core(ci) => {
                    let ci = ci as usize;
                    if !self.parked_ni[ci] {
                        continue; // stale entry from an earlier park
                    }
                    self.parked_ni[ci] = false;
                    self.update_busy(ci);
                    self.wake_domain(self.net.island_of_core[ci], popper, t);
                }
            }
        }
        self.wake_scratch = list;
        self.wake_scratch.clear();
    }

    /// Schedules woken domain `dw` at the first tick its stalled retry can
    /// succeed at, given the unblocking pop happened at `t` inside domain
    /// `popper`'s tick.
    ///
    /// * `dw == popper`: nothing to schedule — the domain is mid-tick right
    ///   now. If the woken element is ordered after the popping switch
    ///   (a later switch, or the NI stage), this very tick re-reads the
    ///   live queue state when it gets there, exactly like the stepped
    ///   engine; if it was already visited, the restored bound/flag
    ///   reschedules it for the next edge when this tick's next-event entry
    ///   is refreshed.
    /// * `dw > popper`: the stepped engine processes `dw` after `popper` at
    ///   equal timestamps, so a retry at `t` itself already sees the pop.
    /// * `dw < popper`: `dw`'s edge at `t` (if any) was processed before
    ///   the pop, so the first retry that can see it is `dw`'s next edge
    ///   strictly after `t`.
    ///
    /// `next_tick[dw]` is fast-forwarded to that tick so the next-event
    /// fold anchors at it: the skipped grid edges are exactly the
    /// ones the scheduler had already proven action-free when it picked
    /// `(t, popper)` as the earliest event (the restored head was parked —
    /// excluded — for all of them).
    fn wake_domain(&mut self, dw: usize, popper: usize, t: u64) {
        if dw == popper || !self.island_on[dw] {
            return;
        }
        let target = if dw > popper { t } else { t + 1 };
        if target > self.next_tick[dw] {
            let p = self.net.period_ps[dw];
            let steps = (target - self.next_tick[dw]).div_ceil(p);
            self.next_tick[dw] += steps * p;
            self.tick_idx[dw] += steps;
        }
        // A wake only moves the woken domain's next event earlier: fold it
        // in O(1) instead of rescanning the domain.
        self.fold_event(dw, self.next_tick[dw]);
    }

    fn snapshot(&self) -> SimStats {
        let mut stats = self.stats.clone();
        stats.elapsed_ps = self.now_ps;
        stats.flits_in_flight = self.staged_cnt.iter().sum::<u64>()
            + self.queues.iter().map(|q| q.len() as u64).sum::<u64>();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_core::{synthesize, SynthesisConfig};
    use vi_noc_soc::{benchmarks, partition};

    fn sim_for(k: usize) -> (SocSpec, Simulator) {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, k).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let point = space.min_power_point().unwrap();
        let sim = Simulator::new(&soc, &point.topology, &SimConfig::default());
        (soc, sim)
    }

    #[test]
    fn packets_flow_end_to_end() {
        let (_, mut sim) = sim_for(4);
        let stats = sim.run_for_ns(50_000);
        assert!(stats.total_delivered_packets() > 100);
        assert!(stats.avg_latency_ps().is_some());
    }

    #[test]
    fn flit_conservation() {
        let (_, mut sim) = sim_for(4);
        let stats = sim.run_for_ns(30_000);
        let fpp = sim.flits_per_packet as u64;
        let injected_flits = stats.total_injected_packets() * fpp;
        // Delivered tail flits imply the whole packet was ejected; count all
        // ejected flits through the eject port counters is complex, so use:
        // injected = delivered + in-flight (+ flits of partially delivered
        // packets, bounded by queue capacity × ports).
        let delivered_flits = stats.total_delivered_packets() * fpp;
        assert!(
            injected_flits >= delivered_flits,
            "delivered more than injected"
        );
        let outstanding = injected_flits - delivered_flits;
        // Everything not delivered must be somewhere in the network or
        // about to be (partial packets in flight).
        assert!(
            stats.flits_in_flight <= outstanding,
            "in-flight {} exceeds outstanding {}",
            stats.flits_in_flight,
            outstanding
        );
    }

    #[test]
    fn cbr_throughput_tracks_demand() {
        // The frequency plan clocks each island at *exactly* its peak
        // bandwidth demand (paper step 1), so the hottest NI saturates at
        // load 1.0 and queueing is critical. Measure slightly below
        // saturation, where delivered throughput must track demand.
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let point = space.min_power_point().unwrap();
        let cfg = SimConfig {
            load_factor: 0.85,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&soc, &point.topology, &cfg);
        let stats = sim.run_for_ns(200_000);
        let mut worst_rel_err: f64 = 0.0;
        for fid in soc.flow_ids() {
            let f = soc.flow(fid);
            if f.bandwidth.mbps() < 100.0 {
                continue; // light flows deliver too few packets to measure
            }
            let got = stats.flow_throughput_bytes_per_s(fid, 64.0);
            let want = f.bandwidth.bytes_per_s() * 0.85;
            worst_rel_err = worst_rel_err.max((got - want).abs() / want);
        }
        assert!(
            worst_rel_err < 0.10,
            "worst throughput error {:.1}%",
            worst_rel_err * 100.0
        );
    }

    #[test]
    fn multi_island_latency_exceeds_single_island() {
        let (_, mut sim1) = sim_for(1);
        let (_, mut sim4) = sim_for(4);
        let s1 = sim1.run_for_ns(100_000);
        let s4 = sim4.run_for_ns(100_000);
        assert!(
            s4.avg_latency_ps().unwrap() > s1.avg_latency_ps().unwrap(),
            "crossing islands must cost latency: {} vs {}",
            s4.avg_latency_ps().unwrap(),
            s1.avg_latency_ps().unwrap()
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (_, mut a) = sim_for(4);
        let (_, mut b) = sim_for(4);
        let sa = a.run_for_ns(20_000);
        let sb = b.run_for_ns(20_000);
        assert_eq!(sa.total_delivered_packets(), sb.total_delivered_packets());
        assert_eq!(sa.avg_latency_ps(), sb.avg_latency_ps());
    }

    #[test]
    fn deactivated_flows_stop_injecting() {
        let (soc, mut sim) = sim_for(4);
        for fid in soc.flow_ids() {
            sim.deactivate_flow(fid);
        }
        let stats = sim.run_for_ns(20_000);
        assert_eq!(stats.total_injected_packets(), 0);
    }

    /// The core of the batching contract, at unit scale: one segmented run
    /// in each mode over the same design must agree on every statistic.
    #[test]
    fn batched_matches_stepped() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = &space.min_power_point().unwrap().topology;
        for load in [0.3, 1.0] {
            let mut batched = Simulator::new(
                &soc,
                topo,
                &SimConfig {
                    load_factor: load,
                    batching: true,
                    ..SimConfig::default()
                },
            );
            let mut stepped = Simulator::new(
                &soc,
                topo,
                &SimConfig {
                    load_factor: load,
                    batching: false,
                    ..SimConfig::default()
                },
            );
            for ns in [7_000, 1, 13_000, 40_000] {
                let sb = batched.run_for_ns(ns);
                let ss = stepped.run_for_ns(ns);
                assert_eq!(sb, ss, "divergence at load {load} after +{ns} ns");
            }
        }
    }

    /// A long fully-idle span (every flow deactivated, network drained)
    /// must cost the batched engine nothing and leave it in lock-step with
    /// the reference when the run continues.
    #[test]
    fn batched_matches_stepped_through_idle_resume() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = &space.min_power_point().unwrap().topology;
        let run = |batching: bool| {
            let mut sim = Simulator::new(
                &soc,
                topo,
                &SimConfig {
                    batching,
                    ..SimConfig::default()
                },
            );
            sim.run_for_ns(10_000);
            // Silence everything; the network drains and goes fully idle.
            for fid in soc.flow_ids() {
                sim.deactivate_flow(fid);
            }
            sim.run_for_ns(500_000);
            sim.run_for_ns(1_000)
        };
        assert_eq!(run(true), run(false));
    }
}
