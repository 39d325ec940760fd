//! Whole-SoC specification: cores + traffic flows.

use crate::core::{CoreId, CoreKind, CoreSpec};
use crate::flow::{FlowId, TrafficFlow};
use std::collections::HashSet;
use std::fmt;
use vi_noc_graph::SymGraph;
use vi_noc_models::{Area, Bandwidth, Power};

/// Validation error for a [`SocSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A flow references a core index outside the spec.
    DanglingFlow {
        /// Index of the offending flow.
        flow: usize,
    },
    /// A flow has identical source and destination.
    SelfFlow {
        /// Index of the offending flow.
        flow: usize,
    },
    /// A flow requires zero or negative bandwidth.
    ZeroBandwidth {
        /// Index of the offending flow.
        flow: usize,
    },
    /// A flow's latency constraint is zero cycles.
    ZeroLatency {
        /// Index of the offending flow.
        flow: usize,
    },
    /// Two cores share the same instance name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::DanglingFlow { flow } => {
                write!(f, "flow {flow} references a core outside the spec")
            }
            SpecError::SelfFlow { flow } => write!(f, "flow {flow} connects a core to itself"),
            SpecError::ZeroBandwidth { flow } => write!(f, "flow {flow} has zero bandwidth"),
            SpecError::ZeroLatency { flow } => {
                write!(f, "flow {flow} has a zero-cycle latency constraint")
            }
            SpecError::DuplicateName { name } => write!(f, "duplicate core name `{name}`"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete SoC communication specification: the input to NoC synthesis.
///
/// Build one with [`SocSpec::new`] + [`add_core`](SocSpec::add_core) +
/// [`add_flow`](SocSpec::add_flow), then call [`validate`](SocSpec::validate)
/// (the bundled benchmarks are pre-validated in tests).
#[derive(Debug, Clone, PartialEq)]
pub struct SocSpec {
    name: String,
    cores: Vec<CoreSpec>,
    flows: Vec<TrafficFlow>,
}

impl SocSpec {
    /// Creates an empty spec named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SocSpec {
            name: name.into(),
            cores: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a core and returns its id.
    pub fn add_core(&mut self, core: CoreSpec) -> CoreId {
        let id = CoreId(self.cores.len());
        self.cores.push(core);
        id
    }

    /// Adds a traffic flow and returns its id.
    ///
    /// Malformed flows are accepted here and reported by
    /// [`validate`](SocSpec::validate); use
    /// [`try_add_flow`](SocSpec::try_add_flow) to reject them immediately.
    pub fn add_flow(&mut self, flow: TrafficFlow) -> FlowId {
        let id = FlowId(self.flows.len());
        self.flows.push(flow);
        id
    }

    /// Adds a traffic flow, rejecting malformed ones up front instead of
    /// deferring to [`validate`](SocSpec::validate) (the data-driven
    /// ingestion path uses this so a bad flow is reported at its source).
    ///
    /// # Errors
    ///
    /// The same per-flow violations `validate` reports: dangling or
    /// self-connecting endpoints, zero bandwidth, zero latency.
    pub fn try_add_flow(&mut self, flow: TrafficFlow) -> Result<FlowId, SpecError> {
        let i = self.flows.len();
        if flow.src.0 >= self.cores.len() || flow.dst.0 >= self.cores.len() {
            return Err(SpecError::DanglingFlow { flow: i });
        }
        if flow.src == flow.dst {
            return Err(SpecError::SelfFlow { flow: i });
        }
        let bw = flow.bandwidth.bytes_per_s();
        if !bw.is_finite() || bw <= 0.0 {
            return Err(SpecError::ZeroBandwidth { flow: i });
        }
        if flow.max_latency_cycles == 0 {
            return Err(SpecError::ZeroLatency { flow: i });
        }
        Ok(self.add_flow(flow))
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Borrows a core by id.
    pub fn core(&self, id: CoreId) -> &CoreSpec {
        &self.cores[id.0]
    }

    /// Borrows a flow by id.
    pub fn flow(&self, id: FlowId) -> &TrafficFlow {
        &self.flows[id.0]
    }

    /// All cores, indexable by `CoreId::index`.
    pub fn cores(&self) -> &[CoreSpec] {
        &self.cores
    }

    /// All flows, indexable by `FlowId::index`.
    pub fn flows(&self) -> &[TrafficFlow] {
        &self.flows
    }

    /// Iterates over core ids.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.cores.len()).map(CoreId)
    }

    /// Iterates over flow ids.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        (0..self.flows.len()).map(FlowId)
    }

    /// Checks structural validity of the spec.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: dangling/self flows, zero
    /// bandwidth or latency, duplicate core names.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut names = HashSet::new();
        for core in &self.cores {
            if !names.insert(core.name.as_str()) {
                return Err(SpecError::DuplicateName {
                    name: core.name.clone(),
                });
            }
        }
        for (i, flow) in self.flows.iter().enumerate() {
            if flow.src.0 >= self.cores.len() || flow.dst.0 >= self.cores.len() {
                return Err(SpecError::DanglingFlow { flow: i });
            }
            if flow.src == flow.dst {
                return Err(SpecError::SelfFlow { flow: i });
            }
            // Non-finite bandwidths (NaN would slip through a plain
            // `<= 0.0` comparison) must not reach the synthesis math.
            let bw = flow.bandwidth.bytes_per_s();
            if !bw.is_finite() || bw <= 0.0 {
                return Err(SpecError::ZeroBandwidth { flow: i });
            }
            if flow.max_latency_cycles == 0 {
                return Err(SpecError::ZeroLatency { flow: i });
            }
        }
        Ok(())
    }

    /// Total silicon area of all cores (NoC excluded).
    pub fn total_core_area(&self) -> Area {
        self.cores.iter().map(|c| c.area).sum()
    }

    /// Total active dynamic power of all cores (NoC excluded).
    pub fn total_core_dyn_power(&self) -> Power {
        self.cores.iter().map(|c| c.dyn_power).sum()
    }

    /// The highest flow bandwidth (the paper's `max_bw`).
    pub fn max_bandwidth(&self) -> Bandwidth {
        self.flows
            .iter()
            .map(|f| f.bandwidth)
            .fold(Bandwidth::ZERO, |a, b| if b > a { b } else { a })
    }

    /// The tightest latency constraint (the paper's `min_lat`), in cycles.
    pub fn min_latency_cycles(&self) -> u32 {
        self.flows
            .iter()
            .map(|f| f.max_latency_cycles)
            .min()
            .unwrap_or(0)
    }

    /// Sum of flow bandwidths into and out of `core` — `(in, out)`.
    pub fn core_io_bandwidth(&self, core: CoreId) -> (Bandwidth, Bandwidth) {
        let mut inb = Bandwidth::ZERO;
        let mut outb = Bandwidth::ZERO;
        for f in &self.flows {
            if f.dst == core {
                inb += f.bandwidth;
            }
            if f.src == core {
                outb += f.bandwidth;
            }
        }
        (inb, outb)
    }

    /// Builds the undirected core-to-core traffic graph, edge weights in
    /// MB/s (both directions accumulated). This is the input to
    /// communication-based VI partitioning.
    pub fn traffic_graph(&self) -> SymGraph {
        let mut g = SymGraph::new(self.cores.len());
        for f in &self.flows {
            if f.src != f.dst {
                g.add_edge(f.src.0, f.dst.0, f.bandwidth.mbps());
            }
        }
        g
    }

    /// Ids of cores whose kind is `kind`.
    pub fn cores_of_kind(&self, kind: CoreKind) -> Vec<CoreId> {
        self.core_ids()
            .filter(|&id| self.core(id).kind == kind)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreKind;

    fn tiny() -> SocSpec {
        let mut s = SocSpec::new("tiny");
        let a = s.add_core(CoreSpec::new("cpu0", CoreKind::Cpu, 2.0, 80.0, 400.0));
        let b = s.add_core(CoreSpec::new("mem0", CoreKind::Memory, 1.5, 30.0, 200.0).always_on());
        s.add_flow(TrafficFlow::new(a, b, 400.0, 10));
        s.add_flow(TrafficFlow::new(b, a, 600.0, 10));
        s
    }

    #[test]
    fn valid_spec_passes() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn detects_self_flow() {
        let mut s = tiny();
        let a = CoreId::from_index(0);
        s.add_flow(TrafficFlow::new(a, a, 10.0, 5));
        assert_eq!(s.validate(), Err(SpecError::SelfFlow { flow: 2 }));
    }

    #[test]
    fn detects_dangling_flow() {
        let mut s = tiny();
        s.add_flow(TrafficFlow::new(
            CoreId::from_index(0),
            CoreId::from_index(99),
            10.0,
            5,
        ));
        assert!(matches!(s.validate(), Err(SpecError::DanglingFlow { .. })));
    }

    #[test]
    fn detects_duplicate_names() {
        let mut s = tiny();
        s.add_core(CoreSpec::new("cpu0", CoreKind::Cpu, 1.0, 10.0, 100.0));
        assert!(matches!(s.validate(), Err(SpecError::DuplicateName { .. })));
    }

    #[test]
    fn detects_zero_bandwidth_and_latency() {
        let mut s = tiny();
        s.add_flow(TrafficFlow::new(
            CoreId::from_index(0),
            CoreId::from_index(1),
            0.0,
            5,
        ));
        assert!(matches!(s.validate(), Err(SpecError::ZeroBandwidth { .. })));

        let mut s2 = tiny();
        s2.add_flow(TrafficFlow::new(
            CoreId::from_index(0),
            CoreId::from_index(1),
            5.0,
            0,
        ));
        assert!(matches!(s2.validate(), Err(SpecError::ZeroLatency { .. })));
    }

    #[test]
    fn try_add_flow_rejects_malformed_flows_eagerly() {
        let a = CoreId::from_index(0);
        let b = CoreId::from_index(1);
        let mut s = tiny();
        assert_eq!(
            s.try_add_flow(TrafficFlow::new(a, CoreId::from_index(9), 5.0, 5)),
            Err(SpecError::DanglingFlow { flow: 2 })
        );
        assert_eq!(
            s.try_add_flow(TrafficFlow::new(a, a, 5.0, 5)),
            Err(SpecError::SelfFlow { flow: 2 })
        );
        assert_eq!(
            s.try_add_flow(TrafficFlow::new(a, b, 0.0, 5)),
            Err(SpecError::ZeroBandwidth { flow: 2 })
        );
        assert_eq!(
            s.try_add_flow(TrafficFlow::new(a, b, f64::NAN, 5)),
            Err(SpecError::ZeroBandwidth { flow: 2 })
        );
        assert_eq!(
            s.try_add_flow(TrafficFlow::new(a, b, 5.0, 0)),
            Err(SpecError::ZeroLatency { flow: 2 })
        );
        // Nothing was added by the rejected calls; a good flow lands at 2.
        assert_eq!(s.flow_count(), 2);
        assert_eq!(
            s.try_add_flow(TrafficFlow::new(a, b, 5.0, 5)),
            Ok(FlowId::from_index(2))
        );
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn aggregates_are_correct() {
        let s = tiny();
        assert!((s.total_core_area().mm2() - 3.5).abs() < 1e-12);
        assert!((s.total_core_dyn_power().mw() - 110.0).abs() < 1e-12);
        assert_eq!(s.max_bandwidth().mbps(), 600.0);
        assert_eq!(s.min_latency_cycles(), 10);
    }

    #[test]
    fn io_bandwidth_sums_directions_separately() {
        let s = tiny();
        let (inb, outb) = s.core_io_bandwidth(CoreId::from_index(0));
        assert_eq!(inb.mbps(), 600.0);
        assert_eq!(outb.mbps(), 400.0);
    }

    #[test]
    fn traffic_graph_symmetrizes() {
        let s = tiny();
        let g = s.traffic_graph();
        assert_eq!(g.len(), 2);
        assert_eq!(g.edge_weight(0, 1), 1000.0);
    }

    #[test]
    fn cores_of_kind_filters() {
        let s = tiny();
        assert_eq!(s.cores_of_kind(CoreKind::Cpu).len(), 1);
        assert_eq!(s.cores_of_kind(CoreKind::Dsp).len(), 0);
    }
}
