//! Inter-switch flow derivation and ordering (Algorithm 1, step 15 prep).

use crate::topology::{SwitchId, Topology};
use vi_noc_models::Bandwidth;
use vi_noc_soc::{FlowId, SocSpec};

/// A traffic flow lifted to the switch level.
#[derive(Debug, Clone, PartialEq)]
pub struct InterSwitchFlow {
    /// The underlying SoC flow.
    pub flow: FlowId,
    /// Switch of the producing core.
    pub src_switch: SwitchId,
    /// Switch of the consuming core.
    pub dst_switch: SwitchId,
    /// Source (real) island.
    pub src_island: usize,
    /// Destination (real) island.
    pub dst_island: usize,
    /// Bandwidth requirement.
    pub bandwidth: Bandwidth,
    /// Zero-load latency constraint, cycles.
    pub max_latency_cycles: u32,
}

/// Lifts every SoC flow to the switch level and orders the list by
/// decreasing bandwidth — the allocation order of the paper ("Choose flows
/// in bandwidth order and find the paths").
///
/// Ties are broken by flow id for determinism.
pub fn inter_switch_flows(spec: &SocSpec, topo: &Topology) -> Vec<InterSwitchFlow> {
    bandwidth_order(spec)
        .into_iter()
        .map(|fid| lift_flow(spec, topo, fid))
        .collect()
}

/// The SoC flows in allocation order: decreasing bandwidth, ties by flow
/// id. The order depends on the spec alone, not on any switch assignment.
pub(crate) fn bandwidth_order(spec: &SocSpec) -> Vec<FlowId> {
    let mut order: Vec<FlowId> = spec.flow_ids().collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (spec.flow(a), spec.flow(b));
        fb.bandwidth
            .partial_cmp(&fa.bandwidth)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// Flow `fid` on the switches of `topo`.
pub(crate) fn lift_flow(spec: &SocSpec, topo: &Topology, fid: FlowId) -> InterSwitchFlow {
    let f = spec.flow(fid);
    let src_switch = topo.switch_of_core(f.src);
    let dst_switch = topo.switch_of_core(f.dst);
    InterSwitchFlow {
        flow: fid,
        src_switch,
        dst_switch,
        src_island: topo.switch(src_switch).island_ext,
        dst_island: topo.switch(dst_switch).island_ext,
        bandwidth: f.bandwidth,
        max_latency_cycles: f.max_latency_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Switch;
    use vi_noc_models::Frequency;
    use vi_noc_soc::{CoreId, CoreKind, CoreSpec, TrafficFlow};

    fn spec_and_topo() -> (SocSpec, Topology) {
        let mut s = SocSpec::new("t");
        let a = s.add_core(CoreSpec::new("a", CoreKind::Cpu, 1.0, 1.0, 100.0));
        let b = s.add_core(CoreSpec::new("b", CoreKind::Memory, 1.0, 1.0, 100.0));
        let c = s.add_core(CoreSpec::new("c", CoreKind::Dsp, 1.0, 1.0, 100.0));
        s.add_flow(TrafficFlow::new(a, b, 100.0, 10));
        s.add_flow(TrafficFlow::new(b, c, 400.0, 20));
        s.add_flow(TrafficFlow::new(a, c, 400.0, 20));

        let mut t = Topology::new(&s, 2, vec![Frequency::from_mhz(100.0); 3], 32);
        t.add_switch(Switch {
            name: "sw0".into(),
            island_ext: 0,
            cores: vec![CoreId::from_index(0), CoreId::from_index(1)],
        });
        t.add_switch(Switch {
            name: "sw1".into(),
            island_ext: 1,
            cores: vec![CoreId::from_index(2)],
        });
        (s, t)
    }

    #[test]
    fn flows_sorted_by_bandwidth_desc_then_id() {
        let (s, t) = spec_and_topo();
        let flows = inter_switch_flows(&s, &t);
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].flow.index(), 1, "400 MB/s, lower id first");
        assert_eq!(flows[1].flow.index(), 2);
        assert_eq!(flows[2].flow.index(), 0);
    }

    #[test]
    fn islands_and_switches_resolved() {
        let (s, t) = spec_and_topo();
        let flows = inter_switch_flows(&s, &t);
        let f0 = flows.iter().find(|f| f.flow.index() == 0).unwrap();
        assert_eq!(f0.src_switch, f0.dst_switch, "a and b share sw0");
        assert_eq!(f0.src_island, 0);
        let f1 = flows.iter().find(|f| f.flow.index() == 1).unwrap();
        assert_ne!(f1.src_switch, f1.dst_switch);
        assert_eq!(f1.dst_island, 1);
    }
}
