//! Affine access analysis and stencil bounds inference.
//!
//! The compiler needs to know, for each stage, which window of each source a
//! given output tile reads — to size PGSM staging buffers and to place input
//! halos (paper Fig. 3(b)). Image-processing coordinate expressions are
//! overwhelmingly affine with rational scale (`x + 1`, `2*x - 1`, `x / 2`),
//! which this module recognizes; anything else (data-dependent gathers) is
//! classified [`AffineCoord::Dynamic`] and conservatively reads the whole
//! source.

use crate::expr::{BinOp, Expr, Var};
use crate::pipeline::SourceId;

/// One coordinate of a source access: `(num * v + offset_num) / den` with
/// floor division, or dynamic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffineCoord {
    /// An affine function of one output coordinate.
    Affine {
        /// Which output variable it depends on (`None` = constant).
        var: Option<Var>,
        /// Numerator scale.
        num: i32,
        /// Denominator (floor division), ≥ 1.
        den: i32,
        /// Additive offset (applied to the numerator).
        offset: i32,
    },
    /// Not an affine function of the output coordinates.
    Dynamic,
}

impl AffineCoord {
    /// Constant coordinate.
    pub fn constant(c: i32) -> Self {
        AffineCoord::Affine { var: None, num: 0, den: 1, offset: c }
    }

    /// Identity on a variable.
    pub fn var(v: Var) -> Self {
        AffineCoord::Affine { var: Some(v), num: 1, den: 1, offset: 0 }
    }

    /// Evaluates the coordinate range given the inclusive variable range
    /// `[lo, hi]` for the variable it depends on; `None` for dynamic.
    pub fn range(&self, lo: i64, hi: i64) -> Option<(i64, i64)> {
        match *self {
            AffineCoord::Dynamic => None,
            AffineCoord::Affine { var, num, den, offset } => {
                let den = den as i64;
                let f = |v: i64| (num as i64 * v + offset as i64).div_euclid(den);
                if var.is_none() {
                    let c = f(0);
                    return Some((c, c));
                }
                let a = f(lo);
                let b = f(hi);
                Some((a.min(b), a.max(b)))
            }
        }
    }
}

/// The (x, y) access pattern of one `At` node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPattern {
    /// Which source is read.
    pub source: SourceId,
    /// Horizontal coordinate expression.
    pub cx: AffineCoord,
    /// Vertical coordinate expression.
    pub cy: AffineCoord,
}

impl AccessPattern {
    /// Whether either coordinate is data-dependent.
    pub fn is_dynamic(&self) -> bool {
        matches!(self.cx, AffineCoord::Dynamic) || matches!(self.cy, AffineCoord::Dynamic)
    }
}

/// The union of a stage's reads of one source, as a window transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilFootprint {
    /// Source being read.
    pub source: SourceId,
    /// `true` if any access is data-dependent: the footprint is the whole
    /// source.
    pub dynamic: bool,
    /// Window in x given an output x-range (see [`Self::window_x`]).
    pub x: (i32, i32, i32), // (num, den, min_offset) ... see fields below
    /// Max x offset.
    pub x_max_offset: i32,
    /// Window in y.
    pub y: (i32, i32, i32),
    /// Max y offset.
    pub y_max_offset: i32,
}

impl StencilFootprint {
    /// The inclusive x-window of the source read for output x in
    /// `[lo, hi]`.
    pub fn window_x(&self, lo: i64, hi: i64) -> (i64, i64) {
        window(self.x, self.x_max_offset, lo, hi)
    }

    /// The inclusive y-window of the source read for output y in
    /// `[lo, hi]`.
    pub fn window_y(&self, lo: i64, hi: i64) -> (i64, i64) {
        window(self.y, self.y_max_offset, lo, hi)
    }
}

fn window(coef: (i32, i32, i32), max_off: i32, lo: i64, hi: i64) -> (i64, i64) {
    let (num, den, min_off) = coef;
    let f = |v: i64, off: i64| (num as i64 * v + off).div_euclid(den as i64);
    let a = f(lo, min_off as i64).min(f(hi, min_off as i64));
    let b = f(lo, max_off as i64).max(f(hi, max_off as i64));
    (a, b)
}

/// Extracts the affine form of a *coordinate* expression.
pub fn analyze_coord(e: &Expr) -> AffineCoord {
    match e {
        Expr::ConstI(c) => AffineCoord::constant(*c),
        Expr::ConstF(c) if c.fract() == 0.0 => AffineCoord::constant(*c as i32),
        Expr::Var(v) => AffineCoord::var(*v),
        Expr::Bin(op, a, b) => {
            let a = analyze_coord(a);
            let b = analyze_coord(b);
            combine(*op, a, b)
        }
        Expr::Cast(_, inner) => analyze_coord(inner),
        _ => AffineCoord::Dynamic,
    }
}

fn combine(op: BinOp, a: AffineCoord, b: AffineCoord) -> AffineCoord {
    use AffineCoord::*;
    let (
        Affine { var: va, num: na, den: da, offset: oa },
        Affine { var: vb, num: nb, den: db, offset: ob },
    ) = (a, b)
    else {
        return Dynamic;
    };
    // Only support den=1 operands for composition except whole-result
    // division below; this covers the benchmark suite's coordinate forms.
    match op {
        BinOp::Add | BinOp::Sub => {
            let sign = if op == BinOp::Sub { -1 } else { 1 };
            if da != 1 || db != 1 {
                return Dynamic;
            }
            match (va, vb) {
                (v, None) => Affine { var: v, num: na, den: 1, offset: oa + sign * ob },
                (None, v) => Affine { var: v, num: sign * nb, den: 1, offset: oa + sign * ob },
                (Some(x), Some(y)) if x == y => {
                    Affine { var: Some(x), num: na + sign * nb, den: 1, offset: oa + sign * ob }
                }
                _ => Dynamic,
            }
        }
        BinOp::Mul => {
            if da != 1 || db != 1 {
                return Dynamic;
            }
            match (va, vb) {
                (v, None) => Affine { var: v, num: na * ob, den: 1, offset: oa * ob },
                (None, v) => Affine { var: v, num: oa * nb, den: 1, offset: oa * ob },
                _ => Dynamic,
            }
        }
        BinOp::Div => {
            // (num*v + offset) / c with constant c.
            if db != 1 || vb.is_some() || ob == 0 {
                return Dynamic;
            }
            Affine { var: va, num: na, den: da * ob, offset: oa }
        }
        _ => Dynamic,
    }
}

/// Collects every source access in a stage body.
pub fn collect_accesses(e: &Expr) -> Vec<AccessPattern> {
    let mut out = Vec::new();
    visit(e, &mut out);
    out
}

fn visit(e: &Expr, out: &mut Vec<AccessPattern>) {
    match e {
        Expr::ConstF(_) | Expr::ConstI(_) | Expr::Var(_) => {}
        Expr::At(s, cx, cy) => {
            out.push(AccessPattern { source: *s, cx: analyze_coord(cx), cy: analyze_coord(cy) });
            visit(cx, out);
            visit(cy, out);
        }
        Expr::Bin(_, a, b) => {
            visit(a, out);
            visit(b, out);
        }
        Expr::Cast(_, inner) => visit(inner, out),
        Expr::Select(c, a, b) => {
            visit(c, out);
            visit(a, out);
            visit(b, out);
        }
    }
}

/// Computes the per-source footprints of a stage body.
pub fn footprints(e: &Expr) -> Vec<StencilFootprint> {
    #[derive(Default)]
    struct AxisAcc {
        init: bool,
        coef: (i32, i32, i32),
        max_off: i32,
    }
    struct Acc {
        source: SourceId,
        dynamic: bool,
        x: AxisAcc,
        y: AxisAcc,
    }

    fn merge_axis(c: AffineCoord, expect_var: Var, axis: &mut AxisAcc, dynamic: &mut bool) {
        match c {
            AffineCoord::Dynamic => *dynamic = true,
            AffineCoord::Affine { var, num, den, offset } => {
                if var.is_some_and(|v| v != expect_var) {
                    // Transposed access (reads x along y): treat as dynamic
                    // for footprint purposes.
                    *dynamic = true;
                    return;
                }
                let (num, den) = if var.is_none() { (0, 1) } else { (num, den) };
                if !axis.init {
                    axis.init = true;
                    axis.coef = (num, den, offset);
                    axis.max_off = offset;
                } else if (axis.coef.0, axis.coef.1) == (num, den) {
                    axis.coef.2 = axis.coef.2.min(offset);
                    axis.max_off = axis.max_off.max(offset);
                } else {
                    // Mixed scales on one source: conservative.
                    *dynamic = true;
                }
            }
        }
    }

    let mut accs: Vec<Acc> = Vec::new();
    for acc in collect_accesses(e) {
        let entry = match accs.iter_mut().find(|f| f.source == acc.source) {
            Some(f) => f,
            None => {
                accs.push(Acc {
                    source: acc.source,
                    dynamic: false,
                    x: AxisAcc::default(),
                    y: AxisAcc::default(),
                });
                accs.last_mut().expect("just pushed")
            }
        };
        if acc.is_dynamic() {
            entry.dynamic = true;
            continue;
        }
        merge_axis(acc.cx, Var::X, &mut entry.x, &mut entry.dynamic);
        merge_axis(acc.cy, Var::Y, &mut entry.y, &mut entry.dynamic);
    }
    accs.into_iter()
        .map(|a| StencilFootprint {
            source: a.source,
            dynamic: a.dynamic,
            x: if a.x.init { a.x.coef } else { (1, 1, 0) },
            x_max_offset: a.x.max_off,
            y: if a.y.init { a.y.coef } else { (1, 1, 0) },
            y_max_offset: a.y.max_off,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{x, y, SourceRef};

    fn src(n: u32) -> SourceRef {
        SourceRef(SourceId(n))
    }

    #[test]
    fn plain_stencil_offsets() {
        let e = src(0).at(x() - 1, y()) + src(0).at(x() + 1, y() + 2);
        let fs = footprints(&e);
        assert_eq!(fs.len(), 1);
        let f = fs[0];
        assert!(!f.dynamic);
        assert_eq!(f.window_x(0, 7), (-1, 8));
        assert_eq!(f.window_y(0, 7), (0, 9));
    }

    #[test]
    fn downsample_scale() {
        let e = src(0).at(x() * 2 - 1, y() * 2 + 1);
        let fs = footprints(&e);
        let f = fs[0];
        assert_eq!(f.window_x(0, 3), (-1, 5));
        assert_eq!(f.window_y(0, 3), (1, 7));
    }

    #[test]
    fn upsample_floor_division() {
        let e = src(0).at(x() / 2, y() / 2);
        let fs = footprints(&e);
        let f = fs[0];
        assert_eq!(f.window_x(0, 7), (0, 3));
        // Negative coordinates floor toward -inf like Halide.
        assert_eq!(f.window_x(-3, -1), (-2, -1));
    }

    #[test]
    fn dynamic_gather_detected() {
        let e = src(0).at(src(1).at(x(), y()).cast_i32(), y());
        let fs = footprints(&e);
        let gathered = fs.iter().find(|f| f.source == SourceId(0)).unwrap();
        assert!(gathered.dynamic);
        // The inner access used for the index is itself affine.
        let index_src = fs.iter().find(|f| f.source == SourceId(1)).unwrap();
        assert!(!index_src.dynamic);
    }

    #[test]
    fn constant_coordinate() {
        let e = src(0).at(5, y());
        let fs = footprints(&e);
        let f = fs[0];
        assert_eq!(f.window_x(0, 100), (5, 5));
    }

    #[test]
    fn mixed_scales_conservative() {
        let e = src(0).at(x(), y()) + src(0).at(x() * 2, y());
        let fs = footprints(&e);
        assert!(fs[0].dynamic);
    }

    #[test]
    fn analyze_coord_forms() {
        assert_eq!(
            analyze_coord(&(x() + 3)),
            AffineCoord::Affine { var: Some(Var::X), num: 1, den: 1, offset: 3 }
        );
        assert_eq!(
            analyze_coord(&(2 * x() - 1)),
            AffineCoord::Affine { var: Some(Var::X), num: 2, den: 1, offset: -1 }
        );
        assert_eq!(
            analyze_coord(&(y() / 2)),
            AffineCoord::Affine { var: Some(Var::Y), num: 1, den: 2, offset: 0 }
        );
        assert_eq!(analyze_coord(&(x() + y())), AffineCoord::Dynamic);
    }

    #[test]
    fn affine_range_with_floor() {
        let c = AffineCoord::Affine { var: Some(Var::X), num: 1, den: 2, offset: 1 };
        // (x+1)/2 over [0,7] -> [0,4]
        assert_eq!(c.range(0, 7), Some((0, 4)));
        assert_eq!(AffineCoord::Dynamic.range(0, 7), None);
        assert_eq!(AffineCoord::constant(9).range(0, 7), Some((9, 9)));
    }
}
