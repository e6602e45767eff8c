//! The two-pass text assembler (`.sasm` sources): the one way assembly
//! text becomes instructions.
//!
//! Instructions are spelled the way [`secsim_isa::disassemble`] prints
//! them (same mnemonics, `off(reg)` addressing, numeric branch offsets,
//! `illegal 0x…`); on top of `#`/`;` comments and labels it adds what a
//! shippable external workload needs:
//!
//! * **sections and directives** — `.base`, `.entry`, `.data`, `.text`,
//!   `.word`, `.half`, `.byte`, `.zero`, `.align`, `.footprint`;
//! * **symbols as values** — `li rd, label` materializes an absolute
//!   address (with `Hi16`/`Lo16` relocations), `.word label` embeds one
//!   in data (with a `Word32` relocation);
//! * **named register aliases** — built-in `zero`/`sp`/`ra` plus
//!   user-defined `.alias name, rN`;
//! * **line *and column* diagnostics** — every [`AsmDiag`] points at
//!   the offending token, not just its line.
//!
//! The output is a relocatable, validated [`ProgramImage`]; pass 1
//! sizes and places everything, pass 2 resolves symbols and encodes.
//!
//! # Examples
//!
//! ```
//! use secsim_workloads::asm::assemble;
//!
//! let img = assemble(
//!     "
//!     .entry main
//!     .data 0x100000
//! table:  .word 7, 11, main
//!     .text
//! main:   li   r1, table
//!         lw   r2, 0(r1)
//!         halt
//!     ",
//! )
//! .unwrap();
//! assert_eq!(img.segments[0].bytes.len(), 12);
//! assert_eq!(img.relocs.len(), 3); // Hi16 + Lo16 for li, Word32 for .word
//! ```

use crate::builder::CODE_BASE;
use crate::prog::{ProgError, ProgramImage, Reloc, RelocKind, Segment, DEFAULT_DATA_BASE};
use secsim_isa::{encode, FReg, Inst, Reg};
use std::collections::HashMap;
use std::fmt;

/// A positioned assembler diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmDiag {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for AsmDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for AsmDiag {}

fn diag(line: usize, col: usize, msg: impl Into<String>) -> AsmDiag {
    AsmDiag { line, col, msg: msg.into() }
}

/// A token with its source position.
#[derive(Debug, Clone)]
struct Tok {
    text: String,
    line: usize,
    col: usize,
}

impl Tok {
    fn err(&self, msg: impl Into<String>) -> AsmDiag {
        diag(self.line, self.col, msg)
    }
}

/// A number or a symbol reference.
#[derive(Debug, Clone)]
enum Value {
    Num(i64),
    Sym(Tok),
}

/// Branch/jump target: numeric word offset or symbol.
#[derive(Debug, Clone)]
enum Target {
    Off(i64),
    Sym(Tok),
}

/// A parsed, sized, not-yet-encoded instruction.
#[derive(Debug, Clone)]
enum PInst {
    /// Fully resolved at parse time.
    Plain(Inst),
    /// Raw word (the `illegal 0x…` spelling the disassembler prints).
    Raw(u32),
    /// Conditional branch; `which` indexes [`BRANCHES`].
    Branch { which: usize, rs1: Reg, rs2: Reg, target: Target },
    /// `j` (`link == false`) or `jal`.
    Jump { link: bool, target: Target },
    /// `li rd, value`; symbolic values always expand to `lui`+`ori`
    /// with relocations.
    Li { rd: Reg, value: Value },
}

impl PInst {
    /// Encoded size in words (fixed in pass 1).
    fn words(&self) -> u32 {
        match self {
            PInst::Li { value: Value::Sym(_), .. } => 2,
            PInst::Li { value: Value::Num(v), .. } => {
                let v = *v as u32;
                if v >> 16 != 0 && v & 0xFFFF != 0 {
                    2
                } else {
                    1
                }
            }
            _ => 1,
        }
    }
}

const BRANCHES: [&str; 6] = ["beq", "bne", "blt", "bge", "bltu", "bgeu"];

fn branch_inst(which: usize, rs1: Reg, rs2: Reg, off: i16) -> Inst {
    match which {
        0 => Inst::Beq { rs1, rs2, off },
        1 => Inst::Bne { rs1, rs2, off },
        2 => Inst::Blt { rs1, rs2, off },
        3 => Inst::Bge { rs1, rs2, off },
        4 => Inst::Bltu { rs1, rs2, off },
        _ => Inst::Bgeu { rs1, rs2, off },
    }
}

/// A pending symbolic `.word` in a data segment.
#[derive(Debug, Clone)]
struct DataRef {
    seg: usize,
    off: usize,
    sym: Tok,
}

/// Assembler state across both passes.
struct Assembler {
    name: String,
    code_base: u32,
    base_locked: bool,
    entry: Option<Value>,
    footprint: Option<(u32, Tok)>,
    insts: Vec<(PInst, usize, usize)>, // (inst, line, col)
    code_words: u32,
    /// Symbol table: name → absolute address.
    syms: HashMap<String, (u32, usize)>,
    aliases: HashMap<String, Reg>,
    segments: Vec<Segment>,
    data_refs: Vec<DataRef>,
    /// Index into `segments` currently being appended to.
    cur_seg: Option<usize>,
    /// Lowest segment base and highest end of the data bytes so far.
    data_span: Option<(u32, u64)>,
    in_data: bool,
}

impl Assembler {
    fn new(name: &str) -> Self {
        let mut aliases = HashMap::new();
        aliases.insert("zero".to_string(), Reg::from_index(0));
        aliases.insert("sp".to_string(), Reg::from_index(30));
        aliases.insert("ra".to_string(), Reg::from_index(31));
        Self {
            name: name.to_string(),
            code_base: CODE_BASE,
            base_locked: false,
            entry: None,
            footprint: None,
            insts: Vec::new(),
            code_words: 0,
            syms: HashMap::new(),
            aliases,
            segments: Vec::new(),
            data_refs: Vec::new(),
            cur_seg: None,
            data_span: None,
            in_data: false,
        }
    }

    fn here(&self) -> u32 {
        if self.in_data {
            self.data_cursor()
        } else {
            self.code_base + self.code_words * 4
        }
    }

    fn data_cursor(&self) -> u32 {
        match self.cur_seg {
            Some(i) => self.segments[i].end(),
            None => DEFAULT_DATA_BASE,
        }
    }

    /// The bytes of the current data segment (opened at
    /// [`DEFAULT_DATA_BASE`] if none is), about to grow by `n`; refused
    /// at `tok`, before anything is allocated, if they would run past
    /// the 32-bit address space or stretch the data past any footprint.
    fn grow(&mut self, n: u64, tok: &Tok) -> Result<&mut Vec<u8>, AsmDiag> {
        let cursor = self.data_cursor();
        let end = u64::from(cursor) + n;
        if end > u64::from(u32::MAX) {
            return Err(tok.err(format!("{n} bytes at {cursor:#x} {}", past_the_top(end))));
        }
        if n > 0 {
            let addr = self.cur_seg.map_or(DEFAULT_DATA_BASE, |i| self.segments[i].addr);
            let (lo, hi) =
                self.data_span.map_or((addr, end), |(lo, hi)| (lo.min(addr), hi.max(end)));
            if hi - u64::from(lo & !63) > MAX_FOOTPRINT {
                return Err(tok.err(too_wide(lo & !63, hi)));
            }
            self.data_span = Some((lo, hi));
        }
        if self.cur_seg.is_none() {
            self.segments.push(Segment { addr: DEFAULT_DATA_BASE, bytes: Vec::new() });
            self.cur_seg = Some(self.segments.len() - 1);
        }
        let i = self.cur_seg.expect("just ensured");
        Ok(&mut self.segments[i].bytes)
    }

    fn bind(&mut self, name: &str, tok: &Tok) -> Result<(), AsmDiag> {
        let addr = self.here();
        if let Some(&(_, first)) = self.syms.get(name) {
            return Err(tok.err(format!("label `{name}` defined twice (first at line {first})")));
        }
        self.syms.insert(name.to_string(), (addr, tok.line));
        Ok(())
    }

    fn push_inst(&mut self, p: PInst, line: usize, col: usize) -> Result<(), AsmDiag> {
        if self.in_data {
            return Err(diag(line, col, "instruction in `.data` section"));
        }
        let words = self.code_words + p.words();
        let end = u64::from(self.code_base) + u64::from(words) * 4;
        if end > u64::from(u32::MAX) {
            let msg = format!("code from {:#x} {}", self.code_base, past_the_top(end));
            return Err(diag(line, col, msg));
        }
        self.base_locked = true;
        self.code_words = words;
        self.insts.push((p, line, col));
        Ok(())
    }

    fn resolve(&self, sym: &Tok) -> Result<u32, AsmDiag> {
        match self.syms.get(&sym.text) {
            Some(&(addr, _)) => Ok(addr),
            None => Err(sym.err(format!("unknown label `{}`", sym.text))),
        }
    }
}

/// The tail of every "does not fit below 2^32" diagnostic.
fn past_the_top(end: u64) -> String {
    format!("would end at {end:#x}, outside the 32-bit address space")
}

/// The largest footprint: the largest power of two a `u32` holds.
const MAX_FOOTPRINT: u64 = 1 << 31;

fn too_wide(data_base: u32, data_end: u64) -> String {
    format!("data [{data_base:#x}, {data_end:#x}) spans more than any footprint (2^31 bytes)")
}

fn parse_int_body(body: &str) -> Option<i64> {
    let (neg, digits) = match body.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, body),
    };
    let v = if let Some(hex) = digits.strip_prefix("0x").or_else(|| digits.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        digits.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_int(tok: &Tok) -> Result<i64, AsmDiag> {
    parse_int_body(&tok.text).ok_or_else(|| tok.err(format!("expected number, got `{}`", tok.text)))
}

fn parse_value(tok: &Tok) -> Value {
    match parse_int_body(&tok.text) {
        Some(v) => Value::Num(v),
        None => Value::Sym(tok.clone()),
    }
}

fn parse_target(tok: &Tok) -> Target {
    match parse_int_body(&tok.text) {
        Some(v) => Target::Off(v),
        None => Target::Sym(tok.clone()),
    }
}

fn as_i16(v: i64, tok: &Tok) -> Result<i16, AsmDiag> {
    i16::try_from(v).map_err(|_| tok.err(format!("immediate {v} out of i16 range")))
}

fn as_u16(v: i64, tok: &Tok) -> Result<u16, AsmDiag> {
    if (0..=0xFFFF).contains(&v) {
        Ok(v as u16)
    } else if (-0x8000..0).contains(&v) {
        Ok(v as i16 as u16)
    } else {
        Err(tok.err(format!("immediate {v} out of 16-bit range")))
    }
}

#[cfg(test)]
pub(crate) fn diag_of(source: &str) -> AsmDiag {
    assemble(source).expect_err("source must not assemble")
}

/// Assembles `source` into a validated [`ProgramImage`] named
/// `"program"`. See the module docs for the accepted grammar.
///
/// # Errors
///
/// The first [`AsmDiag`], pointing at the offending line and column.
pub fn assemble(source: &str) -> Result<ProgramImage, AsmDiag> {
    assemble_named(source, "program")
}

/// [`assemble`] with an explicit program name (CLI callers pass the
/// file stem).
pub fn assemble_named(source: &str, name: &str) -> Result<ProgramImage, AsmDiag> {
    let mut a = Assembler::new(name);

    // ---- pass 1: parse, size, place, bind ----
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        parse_line(&mut a, raw, line)?;
    }

    // ---- pass 2: resolve and encode ----
    let mut code: Vec<u32> = Vec::with_capacity(a.code_words as usize);
    let mut relocs: Vec<Reloc> = Vec::new();
    for (p, line, col) in &a.insts {
        let idx = code.len() as u32;
        match p {
            PInst::Plain(i) => code.push(encode(*i)),
            PInst::Raw(w) => code.push(*w),
            PInst::Branch { which, rs1, rs2, target } => {
                let off = match target {
                    Target::Off(v) => *v,
                    Target::Sym(sym) => {
                        let addr = a.resolve(sym)?;
                        word_offset(addr, a.code_base, idx, sym)?
                    }
                };
                let off = i16::try_from(off).map_err(|_| {
                    diag(*line, *col, format!("branch offset {off} out of i16 range"))
                })?;
                code.push(encode(branch_inst(*which, *rs1, *rs2, off)));
            }
            PInst::Jump { link, target } => {
                let off = match target {
                    Target::Off(v) => *v,
                    Target::Sym(sym) => {
                        let addr = a.resolve(sym)?;
                        word_offset(addr, a.code_base, idx, sym)?
                    }
                };
                let max = (1i64 << 25) - 1;
                if off < -(1i64 << 25) || off > max {
                    return Err(diag(*line, *col, format!("jump offset {off} out of 26-bit range")));
                }
                let off = off as i32;
                code.push(encode(if *link { Inst::Jal { off } } else { Inst::J { off } }));
            }
            PInst::Li { rd, value } => match value {
                Value::Num(v) => {
                    let v = *v as u32;
                    let (hi, lo) = ((v >> 16) as u16, (v & 0xFFFF) as u16);
                    if hi != 0 {
                        code.push(encode(Inst::Lui { rd: *rd, imm: hi }));
                        if lo != 0 {
                            code.push(encode(Inst::Ori { rd: *rd, rs1: *rd, imm: lo }));
                        }
                    } else {
                        code.push(encode(Inst::Ori { rd: *rd, rs1: Reg::from_index(0), imm: lo }));
                    }
                }
                Value::Sym(sym) => {
                    let target = a.resolve(sym)?;
                    relocs.push(Reloc { kind: RelocKind::Hi16, seg: 0, at: idx, target });
                    relocs.push(Reloc { kind: RelocKind::Lo16, seg: 0, at: idx + 1, target });
                    code.push(encode(Inst::Lui { rd: *rd, imm: (target >> 16) as u16 }));
                    code.push(encode(Inst::Ori {
                        rd: *rd,
                        rs1: *rd,
                        imm: (target & 0xFFFF) as u16,
                    }));
                }
            },
        }
    }
    debug_assert_eq!(code.len() as u32, a.code_words, "pass-1 sizing matches pass-2 emission");

    // Patch symbolic `.word`s now every symbol is bound.
    for r in &a.data_refs {
        let target = a.resolve(&r.sym)?;
        a.segments[r.seg].bytes[r.off..r.off + 4].copy_from_slice(&target.to_le_bytes());
        relocs.push(Reloc { kind: RelocKind::Word32, seg: r.seg as u32, at: r.off as u32, target });
    }

    // Sort segments by address, dropping empty ones and remapping the
    // relocations that index them.
    let mut order: Vec<usize> =
        (0..a.segments.len()).filter(|&i| !a.segments[i].bytes.is_empty()).collect();
    order.sort_by_key(|&i| a.segments[i].addr);
    let mut remap = vec![u32::MAX; a.segments.len()];
    for (new, &old) in order.iter().enumerate() {
        remap[old] = new as u32;
    }
    for r in &mut relocs {
        if matches!(r.kind, RelocKind::Word32) {
            r.seg = remap[r.seg as usize];
        }
    }
    let entry = match &a.entry {
        None => a.code_base,
        Some(Value::Num(v)) => *v as u32,
        Some(Value::Sym(sym)) => a.resolve(sym)?,
    };

    let mut segments = Vec::with_capacity(order.len());
    let mut taken = a.segments;
    for &old in &order {
        segments.push(std::mem::replace(&mut taken[old], Segment { addr: 0, bytes: Vec::new() }));
    }

    // Image-level failures point at the last line.
    let image_err = |why: String| diag(source.lines().count().max(1), 1, why);
    let data_base = segments.first().map_or(DEFAULT_DATA_BASE, |s| s.addr & !63);
    let data_end = segments.last().map_or(data_base, Segment::end);
    let footprint = match a.footprint {
        Some((n, ref tok)) => {
            let Some(region_end) = data_base.checked_add(n) else {
                let end = u64::from(data_base) + u64::from(n);
                return Err(tok.err(format!(
                    "footprint {n} from data base {data_base:#x} {}",
                    past_the_top(end)
                )));
            };
            if data_end > region_end {
                return Err(tok.err(format!(
                    "footprint {n} does not cover data ending at {data_end:#x}"
                )));
            }
            n
        }
        None => (data_end - data_base)
            .max(4096)
            .checked_next_power_of_two()
            .ok_or_else(|| image_err(too_wide(data_base, data_end.into())))?,
    };

    let img = ProgramImage {
        name: a.name,
        entry,
        code_base: a.code_base,
        code,
        data_base,
        footprint,
        segments,
        relocs,
    };
    img.validate().map_err(|e| match e {
        ProgError::Invalid(why) => image_err(why),
        other => image_err(other.to_string()),
    })?;
    Ok(img)
}

/// Word offset from instruction index `idx` (relative to the following
/// instruction, as the ISA encodes it) to absolute address `addr`.
fn word_offset(addr: u32, code_base: u32, idx: u32, sym: &Tok) -> Result<i64, AsmDiag> {
    if !addr.is_multiple_of(4) {
        return Err(sym.err(format!("branch target `{}` is not word aligned", sym.text)));
    }
    let target_word = (i64::from(addr) - i64::from(code_base)) / 4;
    Ok(target_word - (i64::from(idx) + 1))
}

/// Parses one raw source line into `a` (pass 1).
fn parse_line(a: &mut Assembler, raw: &str, line: usize) -> Result<(), AsmDiag> {
    let text = match raw.find(['#', ';']) {
        Some(p) => &raw[..p],
        None => raw,
    };
    let mut start = 0usize;

    // Label definitions, possibly several, possibly followed by a
    // statement.
    loop {
        let rest = &text[start..];
        let trimmed = rest.trim_start();
        let off = start + (rest.len() - trimmed.len());
        let Some(colon) = trimmed.find(':') else { break };
        let name = trimmed[..colon].trim_end();
        if name.is_empty() || name.contains(char::is_whitespace) || name.contains(',') {
            break; // not a label; let the statement parser complain
        }
        let tok = Tok { text: name.to_string(), line, col: off + 1 };
        a.bind(name, &tok)?;
        start = off + colon + 1;
    }

    let rest = &text[start..];
    let trimmed = rest.trim_start();
    if trimmed.is_empty() {
        return Ok(());
    }
    let stmt_off = start + (rest.len() - trimmed.len());
    let trimmed = trimmed.trim_end();

    let (mn_text, ops_text, ops_off) = match trimmed.find(char::is_whitespace) {
        Some(p) => (&trimmed[..p], trimmed[p..].trim_start(), {
            let after = &trimmed[p..];
            stmt_off + p + (after.len() - after.trim_start().len())
        }),
        None => (trimmed, "", stmt_off + trimmed.len()),
    };
    let mn = Tok { text: mn_text.to_string(), line, col: stmt_off + 1 };

    // Split operands on top-level commas, tracking columns.
    let mut ops: Vec<Tok> = Vec::new();
    if !ops_text.is_empty() {
        let mut field_start = 0usize;
        let bytes = ops_text.as_bytes();
        for i in 0..=bytes.len() {
            if i == bytes.len() || bytes[i] == b',' {
                let piece = &ops_text[field_start..i];
                let t = piece.trim();
                let lead = piece.len() - piece.trim_start().len();
                ops.push(Tok {
                    text: t.to_string(),
                    line,
                    col: ops_off + field_start + lead + 1,
                });
                field_start = i + 1;
            }
        }
    }

    if mn.text.starts_with('.') {
        return parse_directive(a, &mn, &ops);
    }
    parse_instruction(a, &mn, &ops)
}

fn want(mn: &Tok, ops: &[Tok], n: usize) -> Result<(), AsmDiag> {
    if ops.len() == n {
        Ok(())
    } else {
        Err(mn.err(format!("`{}` wants {n} operands, got {}", mn.text, ops.len())))
    }
}

fn parse_directive(a: &mut Assembler, mn: &Tok, ops: &[Tok]) -> Result<(), AsmDiag> {
    match mn.text.as_str() {
        ".base" => {
            want(mn, ops, 1)?;
            if a.base_locked {
                return Err(mn.err("`.base` must precede the first instruction"));
            }
            let v = parse_int(&ops[0])?;
            if v < 0 || v % 4 != 0 {
                return Err(ops[0].err(format!("code base {v} must be a non-negative multiple of 4")));
            }
            if v > i64::from(u32::MAX) {
                return Err(ops[0].err(format!("code base {v} out of range")));
            }
            a.code_base = v as u32;
            Ok(())
        }
        ".entry" => {
            want(mn, ops, 1)?;
            a.entry = Some(parse_value(&ops[0]));
            Ok(())
        }
        ".footprint" => {
            want(mn, ops, 1)?;
            let v = parse_int(&ops[0])?;
            if v <= 0 || !(v as u64).is_power_of_two() || v > i64::from(u32::MAX) {
                return Err(ops[0].err(format!("footprint {v} is not a power of two")));
            }
            a.footprint = Some((v as u32, ops[0].clone()));
            Ok(())
        }
        ".data" => {
            if ops.len() > 1 {
                return Err(mn.err(format!("`.data` wants 0 or 1 operands, got {}", ops.len())));
            }
            if let Some(addr_tok) = ops.first() {
                let v = parse_int(addr_tok)?;
                if v < 0 || v > i64::from(u32::MAX) {
                    return Err(addr_tok.err(format!("data address {v} out of range")));
                }
                a.segments.push(Segment { addr: v as u32, bytes: Vec::new() });
                a.cur_seg = Some(a.segments.len() - 1);
            }
            a.in_data = true;
            Ok(())
        }
        ".text" => {
            want(mn, ops, 0)?;
            a.in_data = false;
            Ok(())
        }
        ".word" | ".half" | ".byte" => {
            if !a.in_data {
                return Err(mn.err(format!("`{}` outside `.data` section", mn.text)));
            }
            if ops.is_empty() {
                return Err(mn.err(format!("`{}` wants at least one operand", mn.text)));
            }
            for op in ops {
                match (mn.text.as_str(), parse_value(op)) {
                    (".word", Value::Num(v)) => {
                        if !(-(1i64 << 31)..(1i64 << 32)).contains(&v) {
                            return Err(op.err(format!("word value {v} out of 32-bit range")));
                        }
                        a.grow(4, op)?.extend_from_slice(&(v as u32).to_le_bytes());
                    }
                    (".word", Value::Sym(sym)) => {
                        let bytes = a.grow(4, op)?;
                        let off = bytes.len();
                        bytes.extend_from_slice(&[0; 4]);
                        let seg = a.cur_seg.expect("grow opens a segment");
                        a.data_refs.push(DataRef { seg, off, sym });
                    }
                    (".half", Value::Num(v)) => {
                        let v = as_u16(v, op)?;
                        a.grow(2, op)?.extend_from_slice(&v.to_le_bytes());
                    }
                    (".byte", Value::Num(v)) => {
                        if !(-128..=255).contains(&v) {
                            return Err(op.err(format!("byte value {v} out of range")));
                        }
                        a.grow(1, op)?.push(v as u8);
                    }
                    (_, Value::Sym(sym)) => {
                        return Err(sym.err(format!(
                            "`{}` takes numbers only (labels need `.word`)",
                            mn.text
                        )));
                    }
                    _ => unreachable!("directive name matched above"),
                }
            }
            Ok(())
        }
        ".zero" => {
            if !a.in_data {
                return Err(mn.err("`.zero` outside `.data` section"));
            }
            want(mn, ops, 1)?;
            let n = parse_int(&ops[0])?;
            if !(0..=i64::from(u32::MAX)).contains(&n) {
                return Err(ops[0].err(format!("zero-fill length {n} out of range")));
            }
            let bytes = a.grow(n as u64, &ops[0])?;
            bytes.resize(bytes.len() + n as usize, 0);
            Ok(())
        }
        ".align" => {
            if !a.in_data {
                return Err(mn.err("`.align` outside `.data` section"));
            }
            want(mn, ops, 1)?;
            let n = parse_int(&ops[0])?;
            if n <= 0 || !(n as u64).is_power_of_two() {
                return Err(ops[0].err(format!("alignment {n} is not a power of two")));
            }
            let cursor = u64::from(a.data_cursor());
            let pad = cursor.next_multiple_of(n as u64) - cursor;
            if pad > 0 {
                let bytes = a.grow(pad, &ops[0])?;
                bytes.resize(bytes.len() + pad as usize, 0);
            }
            Ok(())
        }
        ".alias" => {
            want(mn, ops, 2)?;
            let name = &ops[0];
            if name.text.is_empty() || parse_int_body(&name.text).is_some() {
                return Err(name.err(format!("bad alias name `{}`", name.text)));
            }
            let reg = parse_reg(a, &ops[1])?;
            a.aliases.insert(name.text.clone(), reg);
            Ok(())
        }
        other => Err(mn.err(format!("unknown directive `{other}`"))),
    }
}

fn parse_reg(a: &Assembler, tok: &Tok) -> Result<Reg, AsmDiag> {
    if let Some(&r) = a.aliases.get(&tok.text) {
        return Ok(r);
    }
    tok.text
        .strip_prefix('r')
        .and_then(|n| n.parse::<u32>().ok())
        .filter(|&n| n < 32)
        .map(Reg::from_index)
        .ok_or_else(|| tok.err(format!("expected integer register, got `{}`", tok.text)))
}

fn parse_freg(tok: &Tok) -> Result<FReg, AsmDiag> {
    tok.text
        .strip_prefix('f')
        .and_then(|n| n.parse::<u32>().ok())
        .filter(|&n| n < 32)
        .map(FReg::from_index)
        .ok_or_else(|| tok.err(format!("expected FP register, got `{}`", tok.text)))
}

/// `off(reg)` addressing.
fn parse_mem_operand(a: &Assembler, tok: &Tok) -> Result<(Reg, i16), AsmDiag> {
    let open = tok
        .text
        .find('(')
        .ok_or_else(|| tok.err(format!("expected `off(reg)`, got `{}`", tok.text)))?;
    let close = tok
        .text
        .rfind(')')
        .filter(|&c| c > open)
        .ok_or_else(|| tok.err("unclosed parenthesis"))?;
    let off = if open == 0 {
        0
    } else {
        let off_tok = Tok { text: tok.text[..open].to_string(), line: tok.line, col: tok.col };
        as_i16(parse_int(&off_tok)?, &off_tok)?
    };
    let reg_tok = Tok {
        text: tok.text[open + 1..close].to_string(),
        line: tok.line,
        col: tok.col + open + 1,
    };
    Ok((parse_reg(a, &reg_tok)?, off))
}

fn parse_instruction(a: &mut Assembler, mn: &Tok, ops: &[Tok]) -> Result<(), AsmDiag> {
    let (line, col) = (mn.line, mn.col);
    macro_rules! push {
        ($p:expr) => {
            a.push_inst($p, line, col)
        };
    }
    macro_rules! rrr {
        ($v:ident) => {{
            want(mn, ops, 3)?;
            let rd = parse_reg(a, &ops[0])?;
            let rs1 = parse_reg(a, &ops[1])?;
            let rs2 = parse_reg(a, &ops[2])?;
            push!(PInst::Plain(Inst::$v { rd, rs1, rs2 }))
        }};
    }
    macro_rules! fff {
        ($v:ident) => {{
            want(mn, ops, 3)?;
            let fd = parse_freg(&ops[0])?;
            let fs1 = parse_freg(&ops[1])?;
            let fs2 = parse_freg(&ops[2])?;
            push!(PInst::Plain(Inst::$v { fd, fs1, fs2 }))
        }};
    }
    macro_rules! load {
        ($v:ident) => {{
            want(mn, ops, 2)?;
            let rd = parse_reg(a, &ops[0])?;
            let (rs1, off) = parse_mem_operand(a, &ops[1])?;
            push!(PInst::Plain(Inst::$v { rd, rs1, off }))
        }};
    }
    macro_rules! store {
        ($v:ident) => {{
            want(mn, ops, 2)?;
            let rs2 = parse_reg(a, &ops[0])?;
            let (rs1, off) = parse_mem_operand(a, &ops[1])?;
            push!(PInst::Plain(Inst::$v { rs1, rs2, off }))
        }};
    }
    macro_rules! shift {
        ($v:ident) => {{
            want(mn, ops, 3)?;
            let rd = parse_reg(a, &ops[0])?;
            let rs1 = parse_reg(a, &ops[1])?;
            let sh = parse_int(&ops[2])?;
            if !(0..32).contains(&sh) {
                return Err(ops[2].err(format!("shift amount {sh} out of range")));
            }
            push!(PInst::Plain(Inst::$v { rd, rs1, sh: sh as u8 }))
        }};
    }

    match mn.text.as_str() {
        "add" => rrr!(Add),
        "sub" => rrr!(Sub),
        "and" => rrr!(And),
        "or" => rrr!(Or),
        "xor" => rrr!(Xor),
        "sll" => rrr!(Sll),
        "srl" => rrr!(Srl),
        "sra" => rrr!(Sra),
        "slt" => rrr!(Slt),
        "sltu" => rrr!(Sltu),
        "mul" => rrr!(Mul),
        "divu" => rrr!(Divu),
        "remu" => rrr!(Remu),
        "addi" | "slti" => {
            want(mn, ops, 3)?;
            let rd = parse_reg(a, &ops[0])?;
            let rs1 = parse_reg(a, &ops[1])?;
            let imm = as_i16(parse_int(&ops[2])?, &ops[2])?;
            push!(PInst::Plain(if mn.text == "addi" {
                Inst::Addi { rd, rs1, imm }
            } else {
                Inst::Slti { rd, rs1, imm }
            }))
        }
        "andi" | "ori" | "xori" => {
            want(mn, ops, 3)?;
            let rd = parse_reg(a, &ops[0])?;
            let rs1 = parse_reg(a, &ops[1])?;
            let imm = as_u16(parse_int(&ops[2])?, &ops[2])?;
            push!(PInst::Plain(match mn.text.as_str() {
                "andi" => Inst::Andi { rd, rs1, imm },
                "ori" => Inst::Ori { rd, rs1, imm },
                _ => Inst::Xori { rd, rs1, imm },
            }))
        }
        "slli" => shift!(Slli),
        "srli" => shift!(Srli),
        "srai" => shift!(Srai),
        "lui" => {
            want(mn, ops, 2)?;
            let rd = parse_reg(a, &ops[0])?;
            let imm = as_u16(parse_int(&ops[1])?, &ops[1])?;
            push!(PInst::Plain(Inst::Lui { rd, imm }))
        }
        "li" => {
            want(mn, ops, 2)?;
            let rd = parse_reg(a, &ops[0])?;
            let value = parse_value(&ops[1]);
            if let Value::Num(v) = value {
                if !(-(1i64 << 31)..(1i64 << 32)).contains(&v) {
                    return Err(ops[1].err(format!("li constant {v} out of 32-bit range")));
                }
            }
            push!(PInst::Li { rd, value })
        }
        "lb" => load!(Lb),
        "lbu" => load!(Lbu),
        "lh" => load!(Lh),
        "lhu" => load!(Lhu),
        "lw" => load!(Lw),
        "sb" => store!(Sb),
        "sh" => store!(Sh),
        "sw" => store!(Sw),
        "fld" => {
            want(mn, ops, 2)?;
            let fd = parse_freg(&ops[0])?;
            let (rs1, off) = parse_mem_operand(a, &ops[1])?;
            push!(PInst::Plain(Inst::Fld { fd, rs1, off }))
        }
        "fsd" => {
            want(mn, ops, 2)?;
            let fs2 = parse_freg(&ops[0])?;
            let (rs1, off) = parse_mem_operand(a, &ops[1])?;
            push!(PInst::Plain(Inst::Fsd { rs1, fs2, off }))
        }
        "fadd" => fff!(Fadd),
        "fsub" => fff!(Fsub),
        "fmul" => fff!(Fmul),
        "fdiv" => fff!(Fdiv),
        "fmov" => {
            want(mn, ops, 2)?;
            let fd = parse_freg(&ops[0])?;
            let fs1 = parse_freg(&ops[1])?;
            push!(PInst::Plain(Inst::Fmov { fd, fs1 }))
        }
        "fcmplt" => {
            want(mn, ops, 3)?;
            let rd = parse_reg(a, &ops[0])?;
            let fs1 = parse_freg(&ops[1])?;
            let fs2 = parse_freg(&ops[2])?;
            push!(PInst::Plain(Inst::Fcmplt { rd, fs1, fs2 }))
        }
        "fcvtif" => {
            want(mn, ops, 2)?;
            let fd = parse_freg(&ops[0])?;
            let rs1 = parse_reg(a, &ops[1])?;
            push!(PInst::Plain(Inst::Fcvtif { fd, rs1 }))
        }
        "fcvtfi" => {
            want(mn, ops, 2)?;
            let rd = parse_reg(a, &ops[0])?;
            let fs1 = parse_freg(&ops[1])?;
            push!(PInst::Plain(Inst::Fcvtfi { rd, fs1 }))
        }
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            want(mn, ops, 3)?;
            let which = BRANCHES.iter().position(|&b| b == mn.text).expect("matched above");
            let rs1 = parse_reg(a, &ops[0])?;
            let rs2 = parse_reg(a, &ops[1])?;
            push!(PInst::Branch { which, rs1, rs2, target: parse_target(&ops[2]) })
        }
        "j" | "jal" => {
            want(mn, ops, 1)?;
            push!(PInst::Jump { link: mn.text == "jal", target: parse_target(&ops[0]) })
        }
        "jalr" => {
            want(mn, ops, 2)?;
            let rd = parse_reg(a, &ops[0])?;
            let rs1 = parse_reg(a, &ops[1])?;
            push!(PInst::Plain(Inst::Jalr { rd, rs1 }))
        }
        "ret" => {
            want(mn, ops, 0)?;
            push!(PInst::Plain(Inst::Jalr { rd: Reg::from_index(0), rs1: Reg::from_index(31) }))
        }
        "out" => {
            want(mn, ops, 2)?;
            let rs1 = parse_reg(a, &ops[0])?;
            let port = parse_int(&ops[1])?;
            if !(0..256).contains(&port) {
                return Err(ops[1].err(format!("port {port} out of range")));
            }
            push!(PInst::Plain(Inst::Out { rs1, port: port as u8 }))
        }
        "halt" => {
            want(mn, ops, 0)?;
            push!(PInst::Plain(Inst::Halt))
        }
        "nop" => {
            want(mn, ops, 0)?;
            push!(PInst::Plain(Inst::Nop))
        }
        "illegal" => {
            want(mn, ops, 1)?;
            let v = parse_int(&ops[0])?;
            if !(0..=i64::from(u32::MAX)).contains(&v) {
                return Err(ops[0].err(format!("raw word {v} out of 32-bit range")));
            }
            push!(PInst::Raw(v as u32))
        }
        other => Err(mn.err(format!("unknown mnemonic `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_isa::{decode, step, ArchState, Asm, MemIo};

    fn run(img: &ProgramImage, max: usize) -> (ArchState, secsim_isa::FlatMem) {
        let mut w = img.workload("test");
        let mut st = ArchState::new(w.entry);
        for _ in 0..max {
            if st.halted {
                break;
            }
            step(&mut st, &mut w.mem).expect("valid code");
        }
        assert!(st.halted, "program did not halt");
        (st, w.mem)
    }

    #[test]
    fn matches_isa_assembler_on_shared_grammar() {
        let src = "
        # sum 100 + 99 + ... + 1

        li   r1, 100
        li   r2, 0      ; accumulator
    top: add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, top
        halt
        ";
        let img = assemble(src).unwrap();
        let mut a = Asm::new(CODE_BASE);
        let top = a.new_label();
        a.li(Reg::R1, 100).li(Reg::R2, 0);
        a.bind(top).unwrap();
        a.add(Reg::R2, Reg::R2, Reg::R1).addi(Reg::R1, Reg::R1, -1).bne(Reg::R1, Reg::R0, top);
        a.halt();
        assert_eq!(img.code, a.assemble().unwrap(), "same program, same encoding");
        assert_eq!(img.entry, CODE_BASE);
        let (st, _) = run(&img, 10_000);
        assert_eq!(st.reg(Reg::from_index(2)), 5050);
    }

    #[test]
    fn data_directives_and_symbolic_li() {
        let img = assemble(
            "
            .entry main
            .data 0x100000
        nums:   .word 5, 6, 7
        msg:    .byte 1, 2, 3
                .align 4
        tail:   .word nums
            .text
        main:   li   r1, nums
                lw   r2, 0(r1)
                lw   r3, 8(r1)
                halt
            ",
        )
        .unwrap();
        assert_eq!(img.data_base, 0x10_0000);
        assert_eq!(img.segments.len(), 1);
        let seg = &img.segments[0];
        assert_eq!(&seg.bytes[..4], &5u32.to_le_bytes());
        assert_eq!(seg.bytes.len(), 12 + 3 + 1 + 4); // words + bytes + pad + tail
        assert_eq!(&seg.bytes[16..20], &0x10_0000u32.to_le_bytes());
        let (st, _) = run(&img, 100);
        assert_eq!(st.reg(Reg::from_index(2)), 5);
        assert_eq!(st.reg(Reg::from_index(3)), 7);
        assert_eq!(img.relocs.len(), 3);
    }

    #[test]
    fn aliases_and_base() {
        let img = assemble(
            "
            .base 0x4000
            .alias ctr, r9
            li  ctr, 3
        top: addi ctr, ctr, -1
            bne ctr, zero, top
            jalr zero, ra       # never reached marker; keep ra/zero parsing alive
        ",
        )
        .unwrap();
        assert_eq!(img.code_base, 0x4000);
        assert_eq!(decode(img.code[0]), Inst::Ori {
            rd: Reg::from_index(9),
            rs1: Reg::from_index(0),
            imm: 3
        });
    }

    #[test]
    fn diagnostics_carry_line_and_column() {
        let e = diag_of("  frobnicate r1\n");
        assert_eq!((e.line, e.col), (1, 3));
        assert_eq!(e.msg, "unknown mnemonic `frobnicate`");

        let e = diag_of("nop\n  beq r1, r2, nowhere\nhalt\n");
        assert_eq!((e.line, e.col), (2, 15));
        assert_eq!(e.msg, "unknown label `nowhere`");

        let e = diag_of("addi r1, r2, 99999\n");
        assert_eq!((e.line, e.col), (1, 14));
        assert_eq!(e.msg, "immediate 99999 out of i16 range");

        let e = diag_of("x: nop\nx: nop\n");
        assert_eq!((e.line, e.col), (2, 1));
        assert_eq!(e.msg, "label `x` defined twice (first at line 1)");

        let e = diag_of(".data\n.word oops\n");
        assert_eq!((e.line, e.col), (2, 7));
        assert_eq!(e.msg, "unknown label `oops`");

        let e = diag_of("j nowhere\n");
        assert_eq!((e.line, e.col), (1, 3));
        assert_eq!(e.msg, "unknown label `nowhere`");

        let e = diag_of("add r1, r2\n");
        assert_eq!((e.line, e.col), (1, 1));
        assert_eq!(e.msg, "`add` wants 3 operands, got 2");

        let e = diag_of("lw r1, r2\n");
        assert_eq!((e.line, e.col), (1, 8));
        assert_eq!(e.msg, "expected `off(reg)`, got `r2`");
    }

    #[test]
    fn footprint_directive_and_default() {
        let img = assemble(".data 0x100000\n.zero 5000\n.text\nhalt\n").unwrap();
        assert_eq!(img.footprint, 8192, "next power of two over 5000");
        let img = assemble(".footprint 65536\n.data 0x100000\n.word 1\n.text\nhalt\n").unwrap();
        assert_eq!(img.footprint, 65536);
        let e = diag_of(".footprint 3000\nhalt\n");
        assert_eq!(e.msg, "footprint 3000 is not a power of two");
        let e = diag_of(".footprint 4096\n.data 0x100000\n.zero 5000\n.text\nhalt\n");
        assert!(e.msg.starts_with("footprint 4096 does not cover data"), "{}", e.msg);
    }

    #[test]
    fn sources_and_images_past_the_address_space_are_typed_errors() {
        // Each row panicked on a u32 overflow (or, in release builds,
        // wrapped into a wrong answer) before cursors and region ends
        // were checked.
        let top = |what: &str| {
            format!("{what} would end at 0x100000000, outside the 32-bit address space")
        };
        let rows = [
            (
                ".data\n.align 4294967296\n.text\nhalt\n",
                (2, 8),
                top("4293918720 bytes at 0x100000"),
            ),
            (".data 0xFFFFFFFC\n.word 1, 2\n", (2, 7), top("4 bytes at 0xfffffffc")),
            (".base 0xFFFFFFFC\nhalt\nhalt\nhalt\n", (2, 1), top("code from 0xfffffffc")),
            (".base 0xFFFFFFFC\nhalt\nx: halt\n", (2, 1), top("code from 0xfffffffc")),
            (
                ".footprint 2147483648\n.data 0x80000000\n.word 1\n",
                (1, 12),
                top("footprint 2147483648 from data base 0x80000000"),
            ),
            (
                ".data 0xFFFFFFF0\n.zero 8\n.align 2147483648\n",
                (3, 8),
                top("8 bytes at 0xfffffff8"),
            ),
            (
                ".data 0x10\n.word 1\n.data 0x90000010\n.word 2\n",
                (4, 7),
                "data [0x0, 0x90000014) spans more than any footprint (2^31 bytes)".to_string(),
            ),
            // Refused at the operand, before the 4 GiB fill is allocated.
            (
                ".data 0\n.zero 4294967295\n.text\nhalt\n",
                (2, 7),
                "data [0x0, 0xffffffff) spans more than any footprint (2^31 bytes)".to_string(),
            ),
            (
                ".data 0xFFFFF000\n.word 1\n.text\nhalt\n",
                (4, 1),
                "protected region [0xfffff000, 0x100000000) ends outside the 32-bit address space"
                    .to_string(),
            ),
            (".base 4294967296\nhalt\n", (1, 7), "code base 4294967296 out of range".to_string()),
        ];
        for (src, pos, msg) in rows {
            let e = diag_of(src);
            assert_eq!(((e.line, e.col), e.msg), (pos, msg), "{src:?}");
        }

        // The same limits guard `.sprog` images decoded from files and
        // wire requests.
        let good = assemble(".data 0x100000\n.word 1\n.text\nhalt\n").unwrap();
        let mut high_code = good.clone();
        (high_code.code_base, high_code.entry) = (0xFFFF_FFFC, 0xFFFF_FFFC);
        let mut high_data = good;
        (high_data.data_base, high_data.footprint) = (0x8000_0000, 0x8000_0000);
        high_data.segments[0].addr = 0x8000_0000;
        for (img, why) in [
            (high_code, "code [0xfffffffc, 0x100000000) ends outside the 32-bit address space"),
            (
                high_data,
                "protected region [0x80000000, 0x100000000) ends outside the 32-bit address space",
            ),
        ] {
            let err = ProgramImage::from_bytes(&img.to_bytes());
            assert_eq!(err, Err(ProgError::Invalid(why.to_string())));
        }
    }

    #[test]
    fn numeric_branch_offsets_round_trip() {
        // The exact spellings Inst's Display prints.
        let img = assemble(
            "beq r1, r2, -1\nj 0\nandi r4, r5, 0xface\nillegal 0xdeadbeef\naddi r1, r0, -0x10\n",
        )
        .unwrap();
        assert_eq!(decode(img.code[0]), Inst::Beq {
            rs1: Reg::from_index(1),
            rs2: Reg::from_index(2),
            off: -1
        });
        assert_eq!(decode(img.code[1]), Inst::J { off: 0 });
        assert_eq!(img.code[3], 0xDEAD_BEEF);
        assert_eq!(decode(img.code[4]), Inst::Addi { rd: Reg::R1, rs1: Reg::R0, imm: -16 });
    }

    #[test]
    fn store_word_visible_in_memory() {
        let img = assemble(
            "
            .data 0x100000
        slot:   .word 0
            .text
            li  r1, slot
            li  r2, 0xABCD
            sw  r2, 0(r1)
            j   load            ; forward, to a label sharing its line
            li  r4, 99          ; never runs
        load: lw r3, 0(r1)
            jal double
            halt
        double: add r3, r3, r3
            ret
        ",
        )
        .unwrap();
        let (st, mut mem) = run(&img, 100);
        assert_eq!(mem.read_u32(0x10_0000), 0xABCD);
        assert_eq!(st.reg(Reg::R3), 0xABCD * 2, "loaded, doubled by the call, returned");
        assert_eq!(st.reg(Reg::R4), 0, "the forward `j` skipped its shadow");
    }
}
