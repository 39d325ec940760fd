//! The declarative sim-axis grid of a dynamic sweep, and its canonical
//! serializations.

use std::fmt;
use vi_noc_core::json::{self, Obj};
use vi_noc_sim::{ShutdownScenario, TrafficKind};
use vi_noc_soc::ViAssignment;

/// The engine mode, written as `"mode"` in scenario JSON and in every
/// result table.
///
/// The engine simulates every cell, so `exact` is the only mode. The type
/// remains because the benchmark under `perfbench/` passes
/// `DynSweepPlan::mode` to [`crate::run_dynsweep`]; it can go once the
/// benchmark stops doing so (the JSON member stays for file
/// compatibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Simulate every cell of the grid.
    Exact,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("exact")
    }
}

impl std::str::FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Mode::Exact),
            other => Err(format!("mode '{other}' is not 'exact'")),
        }
    }
}

/// The first value of `xs` that repeats an earlier one, as `(i, j)` with
/// `j < i` and `xs[j] == xs[i]`. A repeated axis value would simulate the
/// same cells twice and emit duplicate rows, so every axis must be
/// repeat-free.
pub fn first_repeat<T: PartialEq>(xs: &[T]) -> Option<(usize, usize)> {
    (0..xs.len()).find_map(|i| xs[..i].iter().position(|x| *x == xs[i]).map(|j| (i, j)))
}

/// The sim-config grid a dynamic sweep crosses every frontier point with:
/// load factors × traffic kinds × shutdown schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct SimAxes {
    /// Load-factor axis (each scales every flow's offered bandwidth).
    pub loads: Vec<f64>,
    /// Traffic-kind axis.
    pub traffic: Vec<TrafficKind>,
    /// Shutdown-schedule axis; `None` is a free-running cell.
    pub schedules: Vec<Option<ShutdownScenario>>,
    /// Horizon of free-running cells, ns (gated cells run their
    /// schedule's own timeline).
    pub horizon_ns: u64,
}

impl SimAxes {
    /// Checks the axes are simulatable: non-empty, positive finite loads,
    /// a positive horizon, no axis repeating a value, and every schedule
    /// gating a shutdown-capable island of `vi`.
    ///
    /// # Errors
    ///
    /// One pinned message per violated constraint.
    pub fn validate(&self, vi: &ViAssignment) -> Result<(), String> {
        if self.loads.is_empty() || self.loads.iter().any(|l| !l.is_finite() || *l <= 0.0) {
            return Err(
                "axes: 'loads' must be a non-empty array of positive finite numbers".to_string(),
            );
        }
        if self.traffic.is_empty() {
            return Err("axes: 'traffic' must be a non-empty array".to_string());
        }
        if self.schedules.is_empty() {
            return Err("axes: 'schedules' must be a non-empty array".to_string());
        }
        if self.horizon_ns == 0 {
            return Err("axes: 'horizon_ns' must be positive".to_string());
        }
        self.check_distinct()?;
        for (i, sched) in self.schedules.iter().enumerate() {
            if let Some(s) = sched {
                if s.island >= vi.island_count() {
                    return Err(format!(
                        "axes: schedule {i} gates island {} but the partition has {} islands",
                        s.island,
                        vi.island_count()
                    ));
                }
                if !vi.can_shutdown(s.island) {
                    return Err(format!(
                        "axes: schedule {i} gates always-on island {}",
                        s.island
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks no axis repeats a value (see [`first_repeat`]). Loads are
    /// compared bitwise; schedules as resolved, so two entries gating the
    /// same island at the same times repeat however they were declared.
    pub(crate) fn check_distinct(&self) -> Result<(), String> {
        let bits: Vec<u64> = self.loads.iter().map(|l| l.to_bits()).collect();
        for (axis, repeat) in [
            ("loads", first_repeat(&bits)),
            ("traffic", first_repeat(&self.traffic)),
            ("schedules", first_repeat(&self.schedules)),
        ] {
            if let Some((i, j)) = repeat {
                return Err(format!("axes: {axis}[{i}] repeats {axis}[{j}]"));
            }
        }
        Ok(())
    }

    /// Cells per design point.
    pub fn cells_per_point(&self) -> usize {
        self.loads.len() * self.traffic.len() * self.schedules.len()
    }

    /// Writes the axes as one compact JSON object (fixed key order; part
    /// of the byte-deterministic table format).
    pub fn write(&self, out: &mut String) {
        let mut o = Obj::new(out);
        json::array(o.key("loads"), &self.loads, |out, &l| json::num(out, l));
        json::array(o.key("traffic"), &self.traffic, |out, t| {
            json::string(out, &t.to_string())
        });
        json::array(o.key("schedules"), &self.schedules, write_schedule);
        o.num("horizon_ns", self.horizon_ns).end();
    }
}

/// Writes one schedule-axis entry: `null` for a free-running cell, the
/// schedule object otherwise.
fn write_schedule(out: &mut String, s: &Option<ShutdownScenario>) {
    match s {
        None => out.push_str("null"),
        Some(s) => Obj::new(out)
            .num("island", s.island)
            .num("stop_at_ns", s.stop_at_ns)
            .num("drain_ns", s.drain_ns)
            .num("post_gate_ns", s.post_gate_ns)
            .end(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_soc::{benchmarks, partition};

    #[test]
    fn validate_rejects_a_repeated_value_on_every_axis() {
        let vi = partition::logical_partition(&benchmarks::d12_auto(), 4).unwrap();
        let island = (0..vi.island_count())
            .find(|&i| vi.can_shutdown(i))
            .unwrap();
        let gate = ShutdownScenario {
            island,
            stop_at_ns: 2_000,
            drain_ns: 1_500,
            post_gate_ns: 3_000,
        };
        let ok = SimAxes {
            loads: vec![0.5, 0.9],
            traffic: vec![TrafficKind::Cbr, TrafficKind::Poisson],
            schedules: vec![None, Some(gate.clone())],
            horizon_ns: 4_000,
        };
        assert_eq!(ok.validate(&vi), Ok(()));
        for (axes, want) in [
            (
                SimAxes {
                    loads: vec![0.5, 0.9, 0.5],
                    ..ok.clone()
                },
                "axes: loads[2] repeats loads[0]",
            ),
            (
                SimAxes {
                    traffic: vec![TrafficKind::Poisson, TrafficKind::Poisson],
                    ..ok.clone()
                },
                "axes: traffic[1] repeats traffic[0]",
            ),
            (
                SimAxes {
                    schedules: vec![Some(gate.clone()), None, Some(gate.clone())],
                    ..ok.clone()
                },
                "axes: schedules[2] repeats schedules[0]",
            ),
            (
                SimAxes {
                    schedules: vec![None, None],
                    ..ok.clone()
                },
                "axes: schedules[1] repeats schedules[0]",
            ),
        ] {
            assert_eq!(axes.validate(&vi), Err(want.to_string()));
        }
    }
}
