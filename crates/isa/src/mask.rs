//! Execution masks: the `simb_mask` selecting PEs and the `vec_mask`
//! selecting SIMD lanes.

use std::fmt;

use crate::SIMD_LANES;

/// Error produced when constructing a mask with an out-of-range bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskError {
    bit: usize,
    width: usize,
}

impl fmt::Display for MaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mask bit {} out of range for width {}", self.bit, self.width)
    }
}

impl std::error::Error for MaskError {}

/// Boolean vector selecting which PEs of a vault execute a SIMB instruction.
///
/// In the default configuration a vault holds 8 process groups of 4 PEs each,
/// so the mask is a 32-bit boolean vector; the width is kept explicit so
/// alternative machine shapes (used by the sensitivity studies) remain
/// expressible. PE `i` of PG `g` maps to bit `g * pes_per_pg + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimbMask {
    bits: u64,
    width: u8,
}

impl SimbMask {
    /// Maximum supported number of PEs per vault.
    pub const MAX_WIDTH: usize = 64;

    /// Creates a mask with all `width` bits set (every PE executes).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`Self::MAX_WIDTH`].
    pub fn all(width: usize) -> Self {
        assert!(width > 0 && width <= Self::MAX_WIDTH, "invalid SIMB width {width}");
        let bits = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        Self { bits, width: width as u8 }
    }

    /// Creates a mask with no bits set.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`Self::MAX_WIDTH`].
    pub fn none(width: usize) -> Self {
        assert!(width > 0 && width <= Self::MAX_WIDTH, "invalid SIMB width {width}");
        Self { bits: 0, width: width as u8 }
    }

    /// Creates a mask selecting exactly one PE.
    ///
    /// # Errors
    ///
    /// Returns [`MaskError`] if `pe >= width`.
    pub fn single(width: usize, pe: usize) -> Result<Self, MaskError> {
        let mut mask = Self::none(width);
        mask.set(pe)?;
        Ok(mask)
    }

    /// Creates a mask from raw bits, truncating to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`Self::MAX_WIDTH`].
    pub fn from_bits(width: usize, bits: u64) -> Self {
        let all = Self::all(width);
        Self { bits: bits & all.bits, width: all.width }
    }

    /// Sets bit `pe`.
    ///
    /// # Errors
    ///
    /// Returns [`MaskError`] if `pe` is out of range.
    pub fn set(&mut self, pe: usize) -> Result<(), MaskError> {
        if pe >= self.width as usize {
            return Err(MaskError { bit: pe, width: self.width as usize });
        }
        self.bits |= 1 << pe;
        Ok(())
    }

    /// Clears bit `pe`.
    ///
    /// # Errors
    ///
    /// Returns [`MaskError`] if `pe` is out of range.
    pub fn clear(&mut self, pe: usize) -> Result<(), MaskError> {
        if pe >= self.width as usize {
            return Err(MaskError { bit: pe, width: self.width as usize });
        }
        self.bits &= !(1 << pe);
        Ok(())
    }

    /// Returns whether PE `pe` is selected; out-of-range bits read as unset.
    pub fn contains(&self, pe: usize) -> bool {
        pe < self.width as usize && (self.bits >> pe) & 1 == 1
    }

    /// Number of PEs selected.
    pub fn count(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Returns `true` when no PE is selected.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The mask width (number of PEs per vault this mask addresses).
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Raw bit representation (bit `i` = PE `i`).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Iterates over the indices of selected PEs in ascending order, one
    /// bit scan per selected PE (no bit beyond `width` is ever set).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(i)
        })
    }
}

impl fmt::Display for SimbMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits == Self::all(self.width as usize).bits {
            write!(f, "simb=all")
        } else {
            write!(f, "simb={:#x}/{}", self.bits, self.width)
        }
    }
}

/// Boolean vector selecting which of the four SIMD lanes participate in a
/// vector operation (paper Sec. IV-C, the `vec_mask` operand of `comp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecMask(u8);

impl VecMask {
    /// All four lanes enabled.
    pub const ALL: VecMask = VecMask(0b1111);

    /// Creates a mask from the low [`SIMD_LANES`](crate::SIMD_LANES) bits.
    pub fn from_bits(bits: u8) -> Self {
        Self(bits & 0b1111)
    }

    /// Mask enabling only the first `n` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `n > 4`.
    pub fn first(n: usize) -> Self {
        assert!(n <= SIMD_LANES, "lane count {n} exceeds SIMD width");
        Self(((1u16 << n) - 1) as u8)
    }

    /// Whether lane `lane` participates; out-of-range lanes read as disabled.
    pub fn lane(self, lane: usize) -> bool {
        lane < SIMD_LANES && (self.0 >> lane) & 1 == 1
    }

    /// Number of active lanes.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Raw bits (bit `i` = lane `i`).
    pub fn bits(self) -> u8 {
        self.0
    }
}

impl Default for VecMask {
    fn default() -> Self {
        Self::ALL
    }
}

impl fmt::Display for VecMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Self::ALL {
            write!(f, "vec=all")
        } else {
            write!(f, "vec={:#06b}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none() {
        let all = SimbMask::all(32);
        assert_eq!(all.count(), 32);
        assert!(all.contains(0) && all.contains(31) && !all.contains(32));
        let none = SimbMask::none(32);
        assert!(none.is_empty());
    }

    #[test]
    fn width_64_does_not_overflow() {
        let all = SimbMask::all(64);
        assert_eq!(all.count(), 64);
        assert_eq!(all.bits(), u64::MAX);
    }

    #[test]
    fn set_clear_round_trip() {
        let mut m = SimbMask::none(8);
        m.set(3).unwrap();
        assert!(m.contains(3));
        assert_eq!(m.count(), 1);
        m.clear(3).unwrap();
        assert!(m.is_empty());
        assert!(m.set(8).is_err());
        assert!(m.clear(9).is_err());
    }

    #[test]
    fn from_bits_truncates() {
        let m = SimbMask::from_bits(4, 0xFF);
        assert_eq!(m.count(), 4);
        assert_eq!(m.bits(), 0xF);
    }

    #[test]
    fn iter_yields_selected() {
        let m = SimbMask::from_bits(8, 0b1010_0001);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 5, 7]);
    }

    #[test]
    fn iter_matches_contains_at_every_width() {
        use ipim_simkit::prop::{check, Gen};
        let gen = Gen::from_fn(|rng| (1 + (rng.next_u64() % 64) as usize, rng.next_u64()));
        check("iter_lists_exactly_the_contained_pes", &gen, |&(width, bits)| {
            let m = SimbMask::from_bits(width, bits);
            let listed: Vec<usize> = m.iter().collect();
            let expected: Vec<usize> = (0..width).filter(|&i| m.contains(i)).collect();
            assert_eq!(listed, expected);
        });
    }

    #[test]
    fn single_selects_one() {
        let m = SimbMask::single(32, 17).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![17]);
        assert!(SimbMask::single(32, 32).is_err());
    }

    #[test]
    fn vec_mask_lanes() {
        assert_eq!(VecMask::ALL.count(), 4);
        let m = VecMask::first(2);
        assert!(m.lane(0) && m.lane(1) && !m.lane(2));
        assert_eq!(VecMask::from_bits(0b0101).count(), 2);
        assert!(!VecMask::ALL.lane(4));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimbMask::all(32).to_string(), "simb=all");
        assert_eq!(SimbMask::from_bits(8, 0b11).to_string(), "simb=0x3/8");
        assert_eq!(VecMask::ALL.to_string(), "vec=all");
        assert_eq!(VecMask::first(1).to_string(), "vec=0b0001");
    }
}
