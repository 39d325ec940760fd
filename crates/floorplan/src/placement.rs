//! Placement result: rectangles on a die.

use crate::slicing::{Module, PolishElem, PolishExpr};

/// An axis-aligned placed rectangle, in mm.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x: f64,
    /// Bottom edge.
    pub y: f64,
    /// Width.
    pub w: f64,
    /// Height.
    pub h: f64,
}

impl Rect {
    /// Center point of the rectangle.
    pub fn center(&self) -> (f64, f64) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Returns `true` if the interiors of `self` and `other` intersect.
    pub fn overlaps(&self, other: &Rect) -> bool {
        const EPS: f64 = 1e-9;
        self.x + EPS < other.x + other.w
            && other.x + EPS < self.x + self.w
            && self.y + EPS < other.y + other.h
            && other.y + EPS < self.y + self.h
    }

    /// Rectangle area.
    pub fn area(&self) -> f64 {
        self.w * self.h
    }
}

/// A complete floorplan: one placed rectangle per module plus the die
/// bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    rects: Vec<Rect>,
    die_w: f64,
    die_h: f64,
}

impl Placement {
    /// Number of placed rectangles.
    pub fn rect_count(&self) -> usize {
        self.rects.len()
    }

    /// All rectangles, indexed by module.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Center of module `idx` — the attachment point for NoC wiring.
    pub fn center(&self, idx: usize) -> (f64, f64) {
        self.rects[idx].center()
    }

    /// Die dimensions `(width, height)` in mm.
    pub fn die(&self) -> (f64, f64) {
        (self.die_w, self.die_h)
    }

    /// Die area in mm².
    pub fn die_area_mm2(&self) -> f64 {
        self.die_w * self.die_h
    }

    /// Fraction of the die covered by modules (0..1).
    pub fn utilization(&self) -> f64 {
        if self.die_area_mm2() <= 0.0 {
            return 0.0;
        }
        self.rects.iter().map(Rect::area).sum::<f64>() / self.die_area_mm2()
    }

    /// Returns `true` if no two modules overlap (always holds for slicing
    /// floorplans; exposed for property tests).
    pub fn is_overlap_free(&self) -> bool {
        for i in 0..self.rects.len() {
            for j in (i + 1)..self.rects.len() {
                if self.rects[i].overlaps(&self.rects[j]) {
                    return false;
                }
            }
        }
        true
    }
}

/// Evaluates a Polish expression into a placement (see [`Evaluator`]).
pub(crate) fn evaluate(expr: &PolishExpr, modules: &[Module]) -> Placement {
    let mut rects = vec![Rect::default(); modules.len()];
    let (die_w, die_h) = Evaluator::new(expr.elems.len()).place(expr, modules, &mut rects);
    Placement {
        rects,
        die_w,
        die_h,
    }
}

/// A flat Polish-expression evaluator whose buffers are sized once and
/// reused, so evaluating an expression allocates nothing and costs O(n).
///
/// Slicing semantics: `a b V` places `b` to the right of `a`; `a b H`
/// stacks `b` on top of `a`. Subtree bounding boxes are the max/sum of the
/// child dimensions (no shape curves — modules may rotate via the annealer's
/// rotation flags instead).
pub(crate) struct Evaluator {
    /// Bounding box `(w, h)` of the subtree rooted at each element.
    dims: Vec<(f64, f64)>,
    /// Position of each operator's left child; its right child is always
    /// the element just before it.
    left: Vec<usize>,
    /// Origin `(x, y)` of the subtree rooted at each element.
    origin: Vec<(f64, f64)>,
    /// Subtree roots awaiting their parent operator.
    stack: Vec<usize>,
}

impl Evaluator {
    /// Buffers for expressions of `len` elements.
    pub fn new(len: usize) -> Self {
        Evaluator {
            dims: vec![(0.0, 0.0); len],
            left: vec![0; len],
            origin: vec![(0.0, 0.0); len],
            stack: Vec::with_capacity(len),
        }
    }

    /// Places every module of `expr` into `rects` (indexed by module) and
    /// returns the die `(width, height)`.
    ///
    /// The first pass computes subtree boxes bottom-up with an index stack.
    /// The second walks the postorder backwards, so each operator hands
    /// origins to its children before they are visited: the left child
    /// shares its parent's origin, the right one sits past the left child's
    /// width (`V`) or height (`H`).
    pub fn place(
        &mut self,
        expr: &PolishExpr,
        modules: &[Module],
        rects: &mut [Rect],
    ) -> (f64, f64) {
        self.stack.clear();
        for (i, &e) in expr.elems.iter().enumerate() {
            self.dims[i] = match e {
                PolishElem::Operand(m) => expr.module_shape(modules, m),
                cut => {
                    self.stack.pop().expect("valid polish expression");
                    let a = self.stack.pop().expect("valid polish expression");
                    self.left[i] = a;
                    let ((aw, ah), (bw, bh)) = (self.dims[a], self.dims[i - 1]);
                    if cut == PolishElem::V {
                        (aw + bw, ah.max(bh))
                    } else {
                        (aw.max(bw), ah + bh)
                    }
                }
            };
            self.stack.push(i);
        }
        let root = self.stack.pop().expect("non-empty expression");
        assert!(
            self.stack.is_empty(),
            "expression must reduce to a single tree"
        );

        self.origin[root] = (0.0, 0.0);
        for i in (0..=root).rev() {
            let (x, y) = self.origin[i];
            match expr.elems[i] {
                PolishElem::Operand(m) => {
                    let (w, h) = self.dims[i];
                    rects[m] = Rect { x, y, w, h };
                }
                cut => {
                    let a = self.left[i];
                    let (aw, ah) = self.dims[a];
                    self.origin[a] = (x, y);
                    self.origin[i - 1] = if cut == PolishElem::V {
                        (x + aw, y)
                    } else {
                        (x, y + ah)
                    };
                }
            }
        }
        self.dims[root]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicing::Module;

    fn unit_modules(n: usize) -> Vec<Module> {
        (0..n)
            .map(|i| Module::new(format!("m{i}"), 1.0, 0))
            .collect()
    }

    #[test]
    fn two_module_vertical_cut() {
        let modules = unit_modules(2);
        let expr = PolishExpr {
            elems: vec![
                PolishElem::Operand(0),
                PolishElem::Operand(1),
                PolishElem::V,
            ],
            rotated: vec![false; 2],
        };
        let p = evaluate(&expr, &modules);
        assert_eq!(p.die(), (2.0, 1.0));
        assert_eq!(p.rects()[1].x, 1.0);
        assert!(p.is_overlap_free());
        assert!((p.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_module_horizontal_cut() {
        let modules = unit_modules(2);
        let expr = PolishExpr {
            elems: vec![
                PolishElem::Operand(0),
                PolishElem::Operand(1),
                PolishElem::H,
            ],
            rotated: vec![false; 2],
        };
        let p = evaluate(&expr, &modules);
        assert_eq!(p.die(), (1.0, 2.0));
        assert_eq!(p.rects()[1].y, 1.0);
    }

    #[test]
    fn initial_expression_places_everything() {
        let modules = unit_modules(7);
        let expr = PolishExpr::initial(7);
        let p = evaluate(&expr, &modules);
        assert_eq!(p.rect_count(), 7);
        assert!(p.is_overlap_free());
        assert!(p.utilization() > 0.0);
        // All modules inside the die.
        let (dw, dh) = p.die();
        for r in p.rects() {
            assert!(r.x >= -1e-9 && r.y >= -1e-9);
            assert!(r.x + r.w <= dw + 1e-9 && r.y + r.h <= dh + 1e-9);
        }
    }

    #[test]
    fn rect_overlap_detection() {
        let a = Rect {
            x: 0.0,
            y: 0.0,
            w: 2.0,
            h: 2.0,
        };
        let b = Rect {
            x: 1.0,
            y: 1.0,
            w: 2.0,
            h: 2.0,
        };
        let c = Rect {
            x: 2.0,
            y: 0.0,
            w: 1.0,
            h: 1.0,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching edges do not overlap");
        assert_eq!(a.center(), (1.0, 1.0));
    }
}
