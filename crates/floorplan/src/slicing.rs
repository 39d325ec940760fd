//! Slicing-tree representation: modules, nets and Polish expressions.

/// A rectangular block to place (a core, or a reserved macro).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Instance name (for rendering).
    pub name: String,
    /// Width in mm (modules start square; the annealer may rotate them).
    pub width_mm: f64,
    /// Height in mm.
    pub height_mm: f64,
    /// Voltage island of the module, used by the cohesion cost term.
    pub island: usize,
}

impl Module {
    /// Creates a square module of `area_mm2` belonging to `island`.
    ///
    /// # Panics
    ///
    /// Panics if `area_mm2` is not strictly positive.
    pub fn new(name: impl Into<String>, area_mm2: f64, island: usize) -> Self {
        assert!(area_mm2 > 0.0, "module area must be positive");
        let side = area_mm2.sqrt();
        Module {
            name: name.into(),
            width_mm: side,
            height_mm: side,
            island,
        }
    }

    /// Creates a module with explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive.
    pub fn with_shape(name: impl Into<String>, w_mm: f64, h_mm: f64, island: usize) -> Self {
        assert!(
            w_mm > 0.0 && h_mm > 0.0,
            "module dimensions must be positive"
        );
        Module {
            name: name.into(),
            width_mm: w_mm,
            height_mm: h_mm,
            island,
        }
    }

    /// Module area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.width_mm * self.height_mm
    }
}

/// A hyper-net connecting modules, weighted by communication bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Indices of connected modules.
    pub pins: Vec<usize>,
    /// Net weight (e.g. bandwidth in MB/s, normalized by the caller).
    pub weight: f64,
}

impl Net {
    /// Convenience constructor for the common two-pin (flow) net.
    pub fn two_pin(a: usize, b: usize, weight: f64) -> Self {
        Net {
            pins: vec![a, b],
            weight,
        }
    }
}

/// One element of a Polish expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolishElem {
    /// A leaf module index.
    Operand(usize),
    /// Horizontal cut: second subtree stacked on top of the first.
    H,
    /// Vertical cut: second subtree placed right of the first.
    V,
}

/// A (normalized-enough) Polish expression over `n` modules together with
/// each module's rotation flag.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PolishExpr {
    pub elems: Vec<PolishElem>,
    pub rotated: Vec<bool>,
}

impl PolishExpr {
    /// Initial expression: modules joined by alternating cuts, i.e.
    /// `0 1 V 2 H 3 V ...` — a reasonable seed for annealing.
    pub fn initial(n: usize) -> Self {
        assert!(n > 0, "need at least one module");
        let mut elems = vec![PolishElem::Operand(0)];
        for (i, item) in (1..n).enumerate() {
            elems.push(PolishElem::Operand(item));
            elems.push(if i % 2 == 0 {
                PolishElem::V
            } else {
                PolishElem::H
            });
        }
        PolishExpr {
            elems,
            rotated: vec![false; n],
        }
    }

    /// Checks the balloting property (every prefix has more operands than
    /// operators) and completeness. Used by move validity checks and tests.
    pub fn is_valid(&self, n: usize) -> bool {
        let mut operands = 0usize;
        let mut operators = 0usize;
        for e in &self.elems {
            match e {
                PolishElem::Operand(_) => operands += 1,
                _ => {
                    operators += 1;
                    if operators >= operands {
                        return false;
                    }
                }
            }
        }
        operands == n && operators + 1 == operands
    }

    /// Effective (width, height) of module `idx` under its rotation flag.
    pub fn module_shape(&self, modules: &[Module], idx: usize) -> (f64, f64) {
        let m = &modules[idx];
        if self.rotated[idx] {
            (m.height_mm, m.width_mm)
        } else {
            (m.width_mm, m.height_mm)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_constructors() {
        let sq = Module::new("a", 4.0, 0);
        assert!((sq.width_mm - 2.0).abs() < 1e-12);
        assert!((sq.area_mm2() - 4.0).abs() < 1e-12);
        let r = Module::with_shape("b", 1.0, 3.0, 2);
        assert_eq!(r.island, 2);
        assert!((r.area_mm2() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn initial_expression_is_valid() {
        for n in 1..20 {
            let e = PolishExpr::initial(n);
            assert!(e.is_valid(n), "n={n}");
            let operands = e
                .elems
                .iter()
                .filter(|x| matches!(x, PolishElem::Operand(_)))
                .count();
            assert_eq!(operands, n);
        }
    }

    #[test]
    fn validity_rejects_malformed() {
        let mut e = PolishExpr::initial(3);
        // Swap first operand and last operator: breaks balloting.
        let last = e.elems.len() - 1;
        e.elems.swap(0, last);
        assert!(!e.is_valid(3));
    }

    #[test]
    fn rotation_flips_shape() {
        let modules = vec![Module::with_shape("a", 1.0, 2.0, 0)];
        let mut e = PolishExpr::initial(1);
        assert_eq!(e.module_shape(&modules, 0), (1.0, 2.0));
        e.rotated[0] = true;
        assert_eq!(e.module_shape(&modules, 0), (2.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_area() {
        Module::new("bad", 0.0, 0);
    }
}
