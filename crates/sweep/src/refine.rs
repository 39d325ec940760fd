//! Coarse-to-fine refinement: turn a merged coarse frontier into the
//! refinement windows of a finer grid.
//!
//! The `refine` stage of the sweep pipeline reads a frontier file (the
//! merged output of a coarse run), places a window around every surviving
//! point — a few base sweep indices, a boost box, and the fine scale
//! factors near the point's scale — and builds the fine grid restricted to
//! those windows ([`crate::SweepGrid::build_windowed`]). Chain ids and
//! ordinals are the *full* fine grid's, so wherever the windows cover the
//! fine grid, the refined frontier's entries are byte-identical to the
//! exhaustive fine run's; the windows are recorded in the
//! [`crate::GridDescriptor`] so refined and unrefined checkpoints can
//! never merge.
//!
//! Window derivation is deterministic (sorted, deduplicated), so any
//! process refining the same frontier file with the same parameters builds
//! the same descriptor — the merge-compatibility requirement for sharded
//! refined runs.

use crate::checkpoint::ParsedFrontier;
use crate::grid::{GridConfig, RefineWindow};
use vi_noc_core::json::Value;

/// How far a refinement window extends around a surviving coarse point.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineParams {
    /// Half-width of the per-island boost box around the point's boosts.
    pub boost_radius: usize,
    /// Half-width of the base-sweep-index range around the point's index.
    pub base_radius: usize,
    /// Fine scale factors within this absolute distance of the point's
    /// scale are included.
    pub scale_window: f64,
}

impl Default for RefineParams {
    /// One step in every direction, scales within ±0.25.
    fn default() -> Self {
        RefineParams {
            boost_radius: 1,
            base_radius: 1,
            scale_window: 0.25,
        }
    }
}

/// The coordinates of one surviving coarse-frontier point, as the window
/// derivation needs them.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSeed {
    /// Frequency-plan scale factor of the point's chain.
    pub scale: f64,
    /// Base sweep index (1-based).
    pub sweep_index: usize,
    /// Per-island boosts of the point's chain.
    pub boosts: Vec<usize>,
}

/// Extracts the window-derivation coordinates of every frontier entry.
pub fn frontier_seeds(frontier: &ParsedFrontier) -> Result<Vec<FrontierSeed>, String> {
    frontier
        .entries
        .iter()
        .enumerate()
        .map(|(i, (_, entry))| {
            let ctx = format!("frontier[{i}]");
            let scale = entry.f64_member("scale", &ctx)?;
            let sweep_index = entry
                .member("point", &ctx)?
                .member("sweep_index", &ctx)?
                .as_usize()
                .ok_or_else(|| format!("{ctx}: 'sweep_index' is not an integer"))?;
            let boosts = match entry.member("boosts", &ctx)? {
                Value::Arr(bs) => bs
                    .iter()
                    .map(|b| {
                        b.as_usize()
                            .ok_or_else(|| format!("{ctx}: boost is not an integer"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err(format!("{ctx}: 'boosts' is not an array")),
            };
            Ok(FrontierSeed {
                scale,
                sweep_index,
                boosts,
            })
        })
        .collect()
}

/// Checks that a coarse frontier file describes the same experiment as the
/// refine invocation: same spec, same partition tag, same synthesis seed.
/// Any other combination would refine around points of a different design
/// space.
pub fn validate_frontier_source(
    frontier: &ParsedFrontier,
    spec_name: &str,
    partition: &str,
    seed: u64,
) -> Result<(), String> {
    let ctx = "frontier grid";
    let got_spec = frontier.grid.str_member("spec_name", ctx)?;
    if got_spec != spec_name {
        return Err(format!(
            "frontier was swept over spec '{got_spec}', not '{spec_name}'"
        ));
    }
    let got_partition = frontier.grid.str_member("partition", ctx)?;
    if got_partition != partition {
        return Err(format!(
            "frontier used partition '{got_partition}', not '{partition}'"
        ));
    }
    let got_seed = frontier.grid.u64_member("seed", ctx)?;
    if got_seed != seed {
        return Err(format!("frontier used seed {got_seed}, not {seed}"));
    }
    Ok(())
}

/// Derives the refinement windows of fine grid `fine` around `seeds`.
///
/// Per seed: the fine scale indices within `params.scale_window` of the
/// seed's scale, base sweep indices within `params.base_radius` of the
/// seed's, and a boost box from `min(boosts) - boost_radius` to
/// `max(boosts) + boost_radius` clamped to the fine boost axis. Seeds
/// whose scale has no fine neighbor contribute nothing. The result is
/// sorted and deduplicated — a pure function of `(seeds, fine, params)`.
pub fn windows_from_frontier(
    seeds: &[FrontierSeed],
    fine: &GridConfig,
    params: &RefineParams,
) -> Vec<RefineWindow> {
    let mut windows: Vec<RefineWindow> = Vec::new();
    for seed in seeds {
        let scales: Vec<usize> = fine
            .freq_scales
            .iter()
            .enumerate()
            .filter(|(_, &s)| (s - seed.scale).abs() <= params.scale_window)
            .map(|(i, _)| i)
            .collect();
        if scales.is_empty() {
            continue;
        }
        let lo = seed.boosts.iter().copied().min().unwrap_or(0);
        let hi = seed.boosts.iter().copied().max().unwrap_or(0);
        windows.push(RefineWindow {
            scales,
            base_lo: seed.sweep_index.saturating_sub(params.base_radius).max(1),
            base_hi: seed.sweep_index.saturating_add(params.base_radius),
            boost_lo: lo.saturating_sub(params.boost_radius),
            boost_hi: hi.saturating_add(params.boost_radius).min(fine.max_boost),
        });
    }
    windows.sort_by(|a, b| {
        (&a.scales, a.base_lo, a.base_hi, a.boost_lo, a.boost_hi)
            .cmp(&(&b.scales, b.base_lo, b.base_hi, b.boost_lo, b.boost_hi))
    });
    windows.dedup();
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(scale: f64, sweep_index: usize, boosts: &[usize]) -> FrontierSeed {
        FrontierSeed {
            scale,
            sweep_index,
            boosts: boosts.to_vec(),
        }
    }

    #[test]
    fn windows_box_the_seed_and_clamp_to_the_fine_axes() {
        let fine = GridConfig {
            max_boost: 2,
            freq_scales: vec![1.0, 1.1, 1.5],
            max_intermediate: 3,
        };
        let params = RefineParams {
            boost_radius: 1,
            base_radius: 1,
            scale_window: 0.15,
        };
        let ws = windows_from_frontier(&[seed(1.0, 1, &[0, 2])], &fine, &params);
        assert_eq!(
            ws,
            vec![RefineWindow {
                scales: vec![0, 1],
                base_lo: 1,
                base_hi: 2,
                boost_lo: 0,
                boost_hi: 2,
            }]
        );
        // base_lo never drops below the 1-based floor; boost_hi clamps.
        let ws = windows_from_frontier(&[seed(1.5, 3, &[2, 2])], &fine, &params);
        assert_eq!(
            ws,
            vec![RefineWindow {
                scales: vec![2],
                base_lo: 2,
                base_hi: 4,
                boost_lo: 1,
                boost_hi: 2,
            }]
        );
    }

    #[test]
    fn huge_radii_and_indices_saturate_instead_of_wrapping() {
        let fine = GridConfig {
            max_boost: 2,
            freq_scales: vec![1.0],
            max_intermediate: 3,
        };
        let params = RefineParams {
            boost_radius: usize::MAX,
            base_radius: usize::MAX,
            scale_window: 0.0,
        };
        // A huge radius, and a crafted seed near `usize::MAX`, each give
        // the whole axis instead of a wrapped, empty window.
        for s in [
            seed(1.0, 3, &[0, 1]),
            seed(1.0, usize::MAX - 1, &[usize::MAX - 1, 2]),
        ] {
            let ws = windows_from_frontier(&[s], &fine, &params);
            assert_eq!(
                ws,
                vec![RefineWindow {
                    scales: vec![0],
                    base_lo: 1,
                    base_hi: usize::MAX,
                    boost_lo: 0,
                    boost_hi: fine.max_boost,
                }]
            );
        }
    }

    #[test]
    fn duplicate_and_unmatched_seeds_collapse() {
        let fine = GridConfig {
            max_boost: 1,
            freq_scales: vec![1.0],
            max_intermediate: 2,
        };
        let params = RefineParams::default();
        let seeds = vec![
            seed(1.0, 2, &[0, 0]),
            seed(1.0, 2, &[0, 0]), // identical window
            seed(9.0, 2, &[0, 0]), // no fine scale anywhere near
        ];
        let ws = windows_from_frontier(&seeds, &fine, &params);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].scales, vec![0]);
    }
}
