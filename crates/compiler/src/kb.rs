//! Kernel-builder IR: a flat list of items with labels, straight-line
//! region markers and memory tags.
//!
//! Backend passes (register allocation, instruction reordering,
//! memory-order enforcement) operate on *straight-line regions* — the
//! inner-loop bodies — before labels are resolved, so instruction counts
//! may change freely. [`lower`] resolves labels into a final
//! [`ipim_isa::Program`].

use ipim_frontend::SourceId;
use ipim_isa::{CtrlReg, Instruction, Program, ProgramBuilder, ProgramError};

/// Which memory an instruction touches, for dependency construction.
///
/// Instructions with *different* tags never alias. Whether two instructions
/// with the *same* tag may alias depends on the variant: the compiler emits
/// provably-disjoint addresses within one straight region for
/// `DramBuffer`/`PgsmStage`, so those carry no self-conflict, while
/// read-modify-write and scratch traffic is ordered conservatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTag {
    /// A pipeline buffer in DRAM; in-region accesses are disjoint.
    DramBuffer(SourceId),
    /// Read-modify-write DRAM traffic (histogram partials): conservative.
    DramRmw(SourceId),
    /// One register-spill slot: conservative per slot.
    DramSpill(u32),
    /// PGSM traffic for a staged buffer: conservative.
    Pgsm(SourceId),
    /// PGSM staging writes (`ld pgsm`): disjoint by construction.
    PgsmStage(SourceId),
    /// Vault scratchpad traffic: conservative.
    Vsm,
}

impl MemTag {
    /// Whether two same-tagged instructions must stay ordered when at least
    /// one of them writes.
    pub fn self_conflicts(&self) -> bool {
        matches!(self, MemTag::DramRmw(_) | MemTag::DramSpill(_) | MemTag::Pgsm(_) | MemTag::Vsm)
    }
}

/// One item of the kernel IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// An instruction, with an optional memory tag.
    Inst(Instruction, Option<MemTag>),
    /// Binds a label to the next instruction.
    Bind(KLabel),
    /// Unconditional jump to a label.
    JumpTo(KLabel),
    /// Conditional jump (taken when the register is non-zero).
    CJumpTo(CtrlReg, KLabel),
    /// Start of a straight-line optimizable region.
    BeginStraight,
    /// End of a straight-line optimizable region.
    EndStraight,
}

/// A label in the kernel IR (resolved at lowering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KLabel(pub u32);

/// Builds the kernel IR.
#[derive(Debug, Default)]
pub struct KernelBuilder {
    items: Vec<Item>,
    next_label: u32,
    in_straight: bool,
}

impl KernelBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an untagged instruction.
    pub fn push(&mut self, inst: Instruction) {
        self.items.push(Item::Inst(inst, None));
    }

    /// Appends a memory instruction with its tag.
    pub fn push_mem(&mut self, inst: Instruction, tag: MemTag) {
        self.items.push(Item::Inst(inst, Some(tag)));
    }

    /// Allocates a fresh label.
    pub fn label(&mut self) -> KLabel {
        let l = KLabel(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` at the current position.
    pub fn bind(&mut self, label: KLabel) {
        assert!(!self.in_straight, "cannot bind a label inside a straight region");
        self.items.push(Item::Bind(label));
    }

    /// Appends a jump.
    pub fn jump_to(&mut self, label: KLabel) {
        assert!(!self.in_straight, "cannot jump inside a straight region");
        self.items.push(Item::JumpTo(label));
    }

    /// Appends a conditional jump.
    pub fn cjump_to(&mut self, cond: CtrlReg, label: KLabel) {
        assert!(!self.in_straight, "cannot jump inside a straight region");
        self.items.push(Item::CJumpTo(cond, label));
    }

    /// Opens a straight-line region.
    ///
    /// # Panics
    ///
    /// Panics on nested regions.
    pub fn begin_straight(&mut self) {
        assert!(!self.in_straight, "straight regions cannot nest");
        self.in_straight = true;
        self.items.push(Item::BeginStraight);
    }

    /// Closes the current straight-line region.
    ///
    /// # Panics
    ///
    /// Panics if no region is open.
    pub fn end_straight(&mut self) {
        assert!(self.in_straight, "no straight region open");
        self.in_straight = false;
        self.items.push(Item::EndStraight);
    }

    /// Finishes, returning the item list.
    ///
    /// # Panics
    ///
    /// Panics if a straight region is still open.
    pub fn finish(self) -> Vec<Item> {
        assert!(!self.in_straight, "unclosed straight region");
        self.items
    }
}

/// The straight-line regions of an item list, as index ranges (instructions
/// only — guaranteed by construction).
pub fn straight_regions(items: &[Item]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, item) in items.iter().enumerate() {
        match item {
            Item::BeginStraight => start = Some(i + 1),
            Item::EndStraight => {
                let s = start.take().expect("balanced markers");
                out.push(s..i);
            }
            _ => {}
        }
    }
    out
}

/// Resolves labels and produces the final [`Program`].
///
/// # Errors
///
/// Returns [`ProgramError`] if a label is unbound or bound twice.
pub fn lower(items: &[Item]) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    let mut labels = std::collections::HashMap::new();
    let mut label_of =
        |b: &mut ProgramBuilder, l: KLabel| *labels.entry(l).or_insert_with(|| b.new_label());
    for item in items {
        match item {
            Item::Inst(inst, _) => {
                b.push(*inst);
            }
            Item::Bind(l) => {
                let pl = label_of(&mut b, *l);
                b.bind(pl)?;
            }
            Item::JumpTo(l) => {
                let pl = label_of(&mut b, *l);
                b.push_jump_to(pl);
            }
            Item::CJumpTo(c, l) => {
                let pl = label_of(&mut b, *l);
                b.push_cjump_to(*c, pl);
            }
            Item::BeginStraight | Item::EndStraight => {}
        }
    }
    b.seal()
}

/// Counts instructions (static) in an item list.
pub fn static_len(items: &[Item]) -> usize {
    items
        .iter()
        .filter(|i| matches!(i, Item::Inst(..) | Item::JumpTo(_) | Item::CJumpTo(..)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_isa::{CrfOp, CrfSrc, Instruction};

    fn seti(reg: u8, v: i32) -> Instruction {
        Instruction::SetiCrf { dst: CtrlReg::new(reg), imm: v }
    }

    #[test]
    fn build_and_lower_loop() {
        let mut kb = KernelBuilder::new();
        let top = kb.label();
        kb.push(seti(0, 3));
        kb.bind(top);
        kb.push(Instruction::CalcCrf {
            op: CrfOp::Sub,
            dst: CtrlReg::new(0),
            src1: CtrlReg::new(0),
            src2: CrfSrc::Imm(1),
        });
        kb.cjump_to(CtrlReg::new(0), top);
        let items = kb.finish();
        assert_eq!(static_len(&items), 3);
        let p = lower(&items).unwrap();
        assert_eq!(p.len(), 3);
        match p.instructions()[2] {
            Instruction::CJump { target: CrfSrc::Imm(1), .. } => {}
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn straight_regions_found() {
        let mut kb = KernelBuilder::new();
        kb.push(seti(0, 1));
        kb.begin_straight();
        kb.push(seti(1, 2));
        kb.push(seti(2, 3));
        kb.end_straight();
        kb.push(seti(3, 4));
        let items = kb.finish();
        let regions = straight_regions(&items);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].len(), 2);
        for i in regions[0].clone() {
            assert!(matches!(items[i], Item::Inst(..)));
        }
    }

    #[test]
    #[should_panic(expected = "cannot nest")]
    fn nested_straight_panics() {
        let mut kb = KernelBuilder::new();
        kb.begin_straight();
        kb.begin_straight();
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_straight_panics() {
        let mut kb = KernelBuilder::new();
        kb.begin_straight();
        let _ = kb.finish();
    }

    #[test]
    fn forward_labels_resolve() {
        let mut kb = KernelBuilder::new();
        let end = kb.label();
        kb.jump_to(end);
        kb.push(seti(0, 1));
        kb.bind(end);
        let p = lower(&kb.finish()).unwrap();
        match p.instructions()[0] {
            Instruction::Jump { target: CrfSrc::Imm(2) } => {}
            ref other => panic!("unexpected {other:?}"),
        }
    }
}
