//! Textual form of the IR (parser half).
//!
//! Grammar (one item per line; `;` starts a comment running to end of line):
//!
//! ```text
//! module   := function*
//! function := ("kernel"|"device") "@" NAME
//!             "(" "params=" INT "," "regs=" INT "," "barriers=" INT ","
//!                 "entry=" BB ")" "{" predict* block* "}"
//! predict  := "predict" BB "->" ("label" NAME | "func" "@" NAME)
//!             [ "threshold=" INT ]
//! block    := BB [ "(" attrs ")" ] ":" line*
//! attrs    := ("label=" NAME | "roi") ("," ...)*
//! line     := instruction | terminator          (see crate::display)
//! ```
//!
//! `BB` is `bb<N>`, registers are `%r<N>`, barriers are `b<N>`. Float
//! immediates carry an `f` suffix (`0.5f`); bare numbers are integers.

use crate::function::{Block, FuncKind, Function, Module, PredictTarget, Prediction};
use crate::ids::{BarrierId, BlockId, IdVec, Reg};
use crate::inst::{
    BarrierOp, BinOp, FuncRef, Inst, MemSpace, Operand, RngKind, SpecialValue, Terminator, UnOp,
};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Error produced by [`parse_module`], carrying a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self { line, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Reg(u32),
    Int(i64),
    Float(f64),
    At,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Eq,
    Arrow,
    Dot,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Reg(n) => write!(f, "%r{n}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}f"),
            Tok::At => write!(f, "@"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Colon => write!(f, ":"),
            Tok::Eq => write!(f, "="),
            Tok::Arrow => write!(f, "->"),
            Tok::Dot => write!(f, "."),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let mut out = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line_num = lineno + 1;
        let line = match line.find(';') {
            Some(i) => &line[..i],
            None => line,
        };
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            match c {
                ' ' | '\t' | '\r' => i += 1,
                '@' => {
                    out.push((line_num, Tok::At));
                    i += 1;
                }
                '(' => {
                    out.push((line_num, Tok::LParen));
                    i += 1;
                }
                ')' => {
                    out.push((line_num, Tok::RParen));
                    i += 1;
                }
                '{' => {
                    out.push((line_num, Tok::LBrace));
                    i += 1;
                }
                '}' => {
                    out.push((line_num, Tok::RBrace));
                    i += 1;
                }
                '[' => {
                    out.push((line_num, Tok::LBracket));
                    i += 1;
                }
                ']' => {
                    out.push((line_num, Tok::RBracket));
                    i += 1;
                }
                ',' => {
                    out.push((line_num, Tok::Comma));
                    i += 1;
                }
                ':' => {
                    out.push((line_num, Tok::Colon));
                    i += 1;
                }
                '=' => {
                    out.push((line_num, Tok::Eq));
                    i += 1;
                }
                '.' => {
                    out.push((line_num, Tok::Dot));
                    i += 1;
                }
                '-' => {
                    if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                        out.push((line_num, Tok::Arrow));
                        i += 2;
                    } else if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                        let (tok, len) = lex_number(&line[i..], line_num)?;
                        out.push((line_num, tok));
                        i += len;
                    } else {
                        return Err(ParseError::new(line_num, "stray `-`"));
                    }
                }
                '%' => {
                    // %r<digits>
                    if line[i..].len() >= 2 && &line[i + 1..i + 2] == "r" {
                        let rest = &line[i + 2..];
                        let digits: String =
                            rest.chars().take_while(|c| c.is_ascii_digit()).collect();
                        if digits.is_empty() {
                            return Err(ParseError::new(
                                line_num,
                                "expected register number after %r",
                            ));
                        }
                        let n: u32 = digits
                            .parse()
                            .map_err(|_| ParseError::new(line_num, "register number too large"))?;
                        out.push((line_num, Tok::Reg(n)));
                        i += 2 + digits.len();
                    } else {
                        return Err(ParseError::new(line_num, "expected `%r<N>`"));
                    }
                }
                c if c.is_ascii_digit() => {
                    let (tok, len) = lex_number(&line[i..], line_num)?;
                    out.push((line_num, tok));
                    i += len;
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let word: String = line[i..]
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    i += word.len();
                    out.push((line_num, Tok::Ident(word)));
                }
                other => {
                    return Err(ParseError::new(
                        line_num,
                        format!("unexpected character {other:?}"),
                    ))
                }
            }
        }
    }
    Ok(out)
}

fn lex_number(s: &str, line: usize) -> Result<(Tok, usize), ParseError> {
    let bytes = s.as_bytes();
    let mut i = 0;
    if bytes[0] == b'-' {
        i = 1;
    }
    let mut is_float = false;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        // Only a float exponent if followed by digits or sign+digits.
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let has_suffix = i < bytes.len() && bytes[i] == b'f';
    let text = &s[..i];
    if has_suffix || is_float {
        let v: f64 = text
            .parse()
            .map_err(|_| ParseError::new(line, format!("bad float literal {text:?}")))?;
        Ok((Tok::Float(v), i + usize::from(has_suffix)))
    } else {
        let v: i64 = text
            .parse()
            .map_err(|_| ParseError::new(line, format!("bad integer literal {text:?}")))?;
        Ok((Tok::Int(v), i))
    }
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos).or_else(|| self.toks.last()).map_or(0, |(l, _)| *l)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseError::new(self.line(), "unexpected end of input"))?;
        self.pos += 1;
        Ok(t.1)
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        let line = self.line();
        let t = self.next()?;
        if t == tok {
            Ok(())
        } else {
            Err(ParseError::new(line, format!("expected {tok}, found {t}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError::new(line, format!("expected identifier, found {other}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let line = self.line();
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(ParseError::new(line, format!("expected `{kw}`, found `{id}`")))
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Int(v) => Ok(v),
            other => Err(ParseError::new(line, format!("expected integer, found {other}"))),
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_block_ref(&mut self) -> Result<BlockId, ParseError> {
        let line = self.line();
        let id = self.expect_ident()?;
        parse_bb_name(&id)
            .ok_or_else(|| ParseError::new(line, format!("expected bb<N>, found `{id}`")))
    }

    fn expect_barrier_ref(&mut self) -> Result<BarrierId, ParseError> {
        let line = self.line();
        let id = self.expect_ident()?;
        parse_barrier_name(&id)
            .ok_or_else(|| ParseError::new(line, format!("expected b<N>, found `{id}`")))
    }

    fn expect_reg(&mut self) -> Result<Reg, ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Reg(n) => Ok(Reg(n)),
            other => Err(ParseError::new(line, format!("expected register, found {other}"))),
        }
    }

    fn expect_operand(&mut self) -> Result<Operand, ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Reg(n) => Ok(Operand::Reg(Reg(n))),
            Tok::Int(v) => Ok(Operand::Imm(Value::I64(v))),
            Tok::Float(v) => Ok(Operand::Imm(Value::F64(v))),
            other => Err(ParseError::new(line, format!("expected operand, found {other}"))),
        }
    }
}

fn parse_bb_name(s: &str) -> Option<BlockId> {
    let digits = s.strip_prefix("bb")?;
    let n: u32 = digits.parse().ok()?;
    Some(BlockId(n))
}

/// `fn<N>` idents are the printed form of resolved function references.
fn parse_func_ref(name: String) -> FuncRef {
    if let Some(digits) = name.strip_prefix("fn") {
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = digits.parse::<u32>() {
                return FuncRef::Id(crate::ids::FuncId(n));
            }
        }
    }
    FuncRef::Name(name)
}

fn parse_barrier_name(s: &str) -> Option<BarrierId> {
    let digits = s.strip_prefix('b')?;
    if digits.is_empty() || digits.starts_with('b') {
        return None;
    }
    let n: u32 = digits.parse().ok()?;
    Some(BarrierId(n))
}

/// Parses a whole module from its textual form.
///
/// By-name call references are left unresolved; call
/// [`Module::resolve_calls`] afterwards (or use [`parse_and_link`]).
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on malformed input.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut module = Module::new();
    while p.peek().is_some() {
        let func = parse_function(&mut p)?;
        module.functions.push(func);
    }
    Ok(module)
}

/// Parses a module and resolves all by-name call references.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or on a call to an undefined
/// function.
pub fn parse_and_link(src: &str) -> Result<Module, ParseError> {
    let mut m = parse_module(src)?;
    m.resolve_calls()
        .map_err(|name| ParseError::new(0, format!("call to undefined function @{name}")))?;
    Ok(m)
}

fn parse_function(p: &mut Parser) -> Result<Function, ParseError> {
    let line = p.line();
    let kind = match p.expect_ident()?.as_str() {
        "kernel" => FuncKind::Kernel,
        "device" => FuncKind::Device,
        other => {
            return Err(ParseError::new(
                line,
                format!("expected `kernel` or `device`, found `{other}`"),
            ))
        }
    };
    p.expect(Tok::At)?;
    let name = p.expect_ident()?;
    p.expect(Tok::LParen)?;
    p.expect_keyword("params")?;
    p.expect(Tok::Eq)?;
    let num_params = p.expect_int()? as usize;
    p.expect(Tok::Comma)?;
    p.expect_keyword("regs")?;
    p.expect(Tok::Eq)?;
    let num_regs = p.expect_int()? as usize;
    p.expect(Tok::Comma)?;
    p.expect_keyword("barriers")?;
    p.expect(Tok::Eq)?;
    let num_barriers = p.expect_int()? as usize;
    p.expect(Tok::Comma)?;
    p.expect_keyword("entry")?;
    p.expect(Tok::Eq)?;
    let entry = p.expect_block_ref()?;
    p.expect(Tok::RParen)?;
    p.expect(Tok::LBrace)?;

    let mut predictions = Vec::new();
    while p.peek() == Some(&Tok::Ident("predict".to_string())) {
        p.next()?;
        let region_start = p.expect_block_ref()?;
        p.expect(Tok::Arrow)?;
        let line = p.line();
        let target = match p.expect_ident()?.as_str() {
            "label" => PredictTarget::Label(p.expect_ident()?),
            "func" => {
                p.expect(Tok::At)?;
                PredictTarget::Function(parse_func_ref(p.expect_ident()?))
            }
            other => {
                return Err(ParseError::new(
                    line,
                    format!("expected `label` or `func`, found `{other}`"),
                ))
            }
        };
        let threshold = if p.peek() == Some(&Tok::Ident("threshold".to_string())) {
            p.next()?;
            p.expect(Tok::Eq)?;
            Some(p.expect_int()? as u32)
        } else {
            None
        };
        predictions.push(Prediction { region_start, target, threshold });
    }

    // Blocks.
    let mut blocks: HashMap<u32, Block> = HashMap::new();
    let mut order: Vec<u32> = Vec::new();
    while !p.eat(&Tok::RBrace) {
        let line = p.line();
        let bb = p.expect_block_ref()?;
        let mut block = Block::new(None);
        if p.eat(&Tok::LParen) {
            loop {
                let attr_line = p.line();
                match p.expect_ident()?.as_str() {
                    "label" => {
                        p.expect(Tok::Eq)?;
                        block.label = Some(p.expect_ident()?);
                    }
                    "roi" => block.roi = true,
                    other => {
                        return Err(ParseError::new(
                            attr_line,
                            format!("unknown block attribute `{other}`"),
                        ))
                    }
                }
                if !p.eat(&Tok::Comma) {
                    break;
                }
            }
            p.expect(Tok::RParen)?;
        }
        p.expect(Tok::Colon)?;
        let term = parse_block_body(p, &mut block)?;
        block.term = term;
        if blocks.insert(bb.0, block).is_some() {
            return Err(ParseError::new(line, format!("duplicate block bb{}", bb.0)));
        }
        order.push(bb.0);
    }

    // Materialize a dense block table. Ids are distinct, so they are
    // dense iff the largest is the count less one — checked before the
    // table is sized, since the largest id is whatever the text says
    // (`bb4000000000:`); the first gap then sits at or below the count.
    if order.iter().any(|&id| id as usize >= order.len()) {
        let gap = (0..).find(|i| !blocks.contains_key(i)).expect("a gap below the count");
        return Err(ParseError::new(0, format!("function @{name}: block bb{gap} is missing")));
    }
    let mut table: IdVec<BlockId, Block> = IdVec::with_capacity(order.len());
    for i in 0..order.len() as u32 {
        table.push(blocks.remove(&i).expect("ids are distinct and below the count"));
    }
    if table.is_empty() {
        return Err(ParseError::new(0, format!("function @{name} has no blocks")));
    }
    if entry.index() >= table.len() {
        return Err(ParseError::new(
            0,
            format!("function @{name}: entry bb{} undefined", entry.index()),
        ));
    }

    Ok(Function {
        name,
        kind,
        num_params,
        num_regs,
        num_barriers,
        blocks: table,
        entry,
        predictions,
    })
}

/// Parses instructions until a terminator; returns the terminator.
fn parse_block_body(p: &mut Parser, block: &mut Block) -> Result<Terminator, ParseError> {
    loop {
        let line = p.line();
        match p.next()? {
            // Terminators ---------------------------------------------------
            Tok::Ident(kw) if kw == "jmp" => {
                return Ok(Terminator::Jump(p.expect_block_ref()?));
            }
            Tok::Ident(kw) if kw == "br" || kw == "brdiv" => {
                let cond = p.expect_operand()?;
                p.expect(Tok::Comma)?;
                let then_bb = p.expect_block_ref()?;
                p.expect(Tok::Comma)?;
                let else_bb = p.expect_block_ref()?;
                return Ok(Terminator::Branch { cond, then_bb, else_bb, divergent: kw == "brdiv" });
            }
            Tok::Ident(kw) if kw == "ret" => {
                let mut values = Vec::new();
                if matches!(p.peek(), Some(Tok::Reg(_) | Tok::Int(_) | Tok::Float(_))) {
                    values.push(p.expect_operand()?);
                    while p.eat(&Tok::Comma) {
                        values.push(p.expect_operand()?);
                    }
                }
                return Ok(Terminator::Return(values));
            }
            Tok::Ident(kw) if kw == "exit" => {
                return Ok(Terminator::Exit);
            }
            // dst-less instructions ----------------------------------------
            Tok::Ident(kw) if kw == "store" => {
                let space = parse_space(p)?;
                p.expect(Tok::LBracket)?;
                let addr = p.expect_operand()?;
                p.expect(Tok::RBracket)?;
                p.expect(Tok::Comma)?;
                let value = p.expect_operand()?;
                block.insts.push(Inst::Store { space, addr, value });
            }
            Tok::Ident(kw) if kw == "call" => {
                p.expect(Tok::At)?;
                let callee = p.expect_ident()?;
                p.expect(Tok::LParen)?;
                let mut args = Vec::new();
                if p.peek() != Some(&Tok::RParen) {
                    args.push(p.expect_operand()?);
                    while p.eat(&Tok::Comma) {
                        args.push(p.expect_operand()?);
                    }
                }
                p.expect(Tok::RParen)?;
                let mut rets = Vec::new();
                if p.eat(&Tok::Arrow) {
                    p.expect(Tok::LParen)?;
                    rets.push(p.expect_reg()?);
                    while p.eat(&Tok::Comma) {
                        rets.push(p.expect_reg()?);
                    }
                    p.expect(Tok::RParen)?;
                }
                block.insts.push(Inst::Call { func: parse_func_ref(callee), args, rets });
            }
            Tok::Ident(kw) if kw == "work" => {
                let amount = p.expect_int()?;
                if amount < 0 {
                    return Err(ParseError::new(line, "work amount must be non-negative"));
                }
                block.insts.push(Inst::Work { amount: amount as u32 });
            }
            Tok::Ident(kw) if kw == "nop" => block.insts.push(Inst::Nop),
            Tok::Ident(kw) if kw == "syncthreads" => block.insts.push(Inst::SyncThreads),
            Tok::Ident(kw) if kw == "rngseed" => {
                let src = p.expect_operand()?;
                block.insts.push(Inst::SeedRng { src });
            }
            Tok::Ident(kw) if kw == "join" => {
                block.insts.push(Inst::Barrier(BarrierOp::Join(p.expect_barrier_ref()?)));
            }
            Tok::Ident(kw) if kw == "wait" => {
                block.insts.push(Inst::Barrier(BarrierOp::Wait(p.expect_barrier_ref()?)));
            }
            Tok::Ident(kw) if kw == "cancel" => {
                block.insts.push(Inst::Barrier(BarrierOp::Cancel(p.expect_barrier_ref()?)));
            }
            Tok::Ident(kw) if kw == "rejoin" => {
                block.insts.push(Inst::Barrier(BarrierOp::Rejoin(p.expect_barrier_ref()?)));
            }
            Tok::Ident(kw) if kw == "bcopy" => {
                let dst = p.expect_barrier_ref()?;
                p.expect(Tok::Comma)?;
                let src = p.expect_barrier_ref()?;
                block.insts.push(Inst::Barrier(BarrierOp::Copy { dst, src }));
            }
            // dst = ... instructions ----------------------------------------
            Tok::Reg(n) => {
                let dst = Reg(n);
                p.expect(Tok::Eq)?;
                let inst = parse_rhs(p, dst)?;
                block.insts.push(inst);
            }
            other => {
                return Err(ParseError::new(
                    line,
                    format!("unexpected token {other} in block body"),
                ))
            }
        }
    }
}

fn parse_space(p: &mut Parser) -> Result<MemSpace, ParseError> {
    let line = p.line();
    match p.expect_ident()?.as_str() {
        "global" => Ok(MemSpace::Global),
        "local" => Ok(MemSpace::Local),
        other => Err(ParseError::new(line, format!("unknown memory space `{other}`"))),
    }
}

fn parse_rhs(p: &mut Parser, dst: Reg) -> Result<Inst, ParseError> {
    let line = p.line();
    let mnem = p.expect_ident()?;

    if let Some(&op) = BinOp::all().iter().find(|op| op.mnemonic() == mnem) {
        let lhs = p.expect_operand()?;
        p.expect(Tok::Comma)?;
        let rhs = p.expect_operand()?;
        return Ok(Inst::Bin { op, dst, lhs, rhs });
    }
    if let Some(&op) = UnOp::all().iter().find(|op| op.mnemonic() == mnem) {
        let src = p.expect_operand()?;
        return Ok(Inst::Un { op, dst, src });
    }
    match mnem.as_str() {
        "mov" => Ok(Inst::Mov { dst, src: p.expect_operand()? }),
        "sel" => {
            let cond = p.expect_operand()?;
            p.expect(Tok::Comma)?;
            let if_true = p.expect_operand()?;
            p.expect(Tok::Comma)?;
            let if_false = p.expect_operand()?;
            Ok(Inst::Sel { dst, cond, if_true, if_false })
        }
        "load" => {
            let space = parse_space(p)?;
            p.expect(Tok::LBracket)?;
            let addr = p.expect_operand()?;
            p.expect(Tok::RBracket)?;
            Ok(Inst::Load { dst, space, addr })
        }
        "atomic_add" => {
            p.expect(Tok::LBracket)?;
            let addr = p.expect_operand()?;
            p.expect(Tok::RBracket)?;
            p.expect(Tok::Comma)?;
            let value = p.expect_operand()?;
            Ok(Inst::AtomicAdd { dst, addr, value })
        }
        "special" => {
            p.expect(Tok::Dot)?;
            let line = p.line();
            let kind = match p.expect_ident()?.as_str() {
                "tid" => SpecialValue::Tid,
                "lane" => SpecialValue::LaneId,
                "warp" => SpecialValue::WarpId,
                "nthreads" => SpecialValue::NumThreads,
                "warpwidth" => SpecialValue::WarpWidth,
                other => {
                    return Err(ParseError::new(line, format!("unknown special value `{other}`")))
                }
            };
            Ok(Inst::Special { dst, kind })
        }
        "rng" => {
            p.expect(Tok::Dot)?;
            let line = p.line();
            let kind = match p.expect_ident()?.as_str() {
                "u63" => RngKind::U63,
                "unit" => RngKind::Unit,
                other => return Err(ParseError::new(line, format!("unknown rng kind `{other}`"))),
            };
            Ok(Inst::Rng { dst, kind })
        }
        "arrived" => {
            let bar = p.expect_barrier_ref()?;
            Ok(Inst::Barrier(BarrierOp::ArrivedCount { dst, bar }))
        }
        "vote" => {
            let pred = p.expect_operand()?;
            Ok(Inst::Vote { dst, pred })
        }
        other => Err(ParseError::new(line, format!("unknown instruction `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
kernel @k(params=1, regs=6, barriers=2, entry=bb0) {
  predict bb0 -> label L1 threshold=16
bb0:
  %r1 = add %r0, 1
  %r2 = lt %r1, 10
  join b0
  brdiv %r2, bb1, bb2
bb1 (label=L1, roi):
  %r3 = rng.unit
  wait b0
  work 40
  jmp bb2
bb2:
  %r4 = special.tid
  store global[%r4], %r1
  exit
}
"#;

    #[test]
    fn parses_sample() {
        let m = parse_module(SAMPLE).unwrap();
        assert_eq!(m.functions.len(), 1);
        let f = &m.functions[crate::ids::FuncId(0)];
        assert_eq!(f.name, "k");
        assert_eq!(f.num_regs, 6);
        assert_eq!(f.num_barriers, 2);
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.predictions.len(), 1);
        assert_eq!(f.predictions[0].threshold, Some(16));
        let bb1 = f.block_by_label("L1").unwrap();
        assert!(f.blocks[bb1].roi);
    }

    #[test]
    fn round_trips_through_display() {
        let m = parse_module(SAMPLE).unwrap();
        let printed = m.to_string();
        let reparsed = parse_module(&printed).unwrap();
        assert_eq!(m, reparsed);
    }

    #[test]
    fn parses_negative_and_float_immediates() {
        let src = "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\nbb0:\n  %r0 = mov -5\n  %r1 = mov 0.25f\n  exit\n}\n";
        let m = parse_module(src).unwrap();
        let f = &m.functions[crate::ids::FuncId(0)];
        assert_eq!(
            f.blocks[f.entry].insts[0],
            Inst::Mov { dst: Reg(0), src: Operand::imm_i64(-5) }
        );
        assert_eq!(
            f.blocks[f.entry].insts[1],
            Inst::Mov { dst: Reg(1), src: Operand::imm_f64(0.25) }
        );
    }

    #[test]
    fn error_carries_line_number() {
        let src = "kernel @k(params=0, regs=0, barriers=0, entry=bb0) {\nbb0:\n  %r0 = bogus 1\n  exit\n}\n";
        let err = parse_module(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn missing_block_is_reported() {
        let src = "kernel @k(params=0, regs=0, barriers=0, entry=bb0) {\nbb0:\n  jmp bb2\nbb2:\n  exit\n}\n";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("bb1 is missing"), "{err}");
    }

    #[test]
    fn duplicate_block_is_reported() {
        let src =
            "kernel @k(params=0, regs=0, barriers=0, entry=bb0) {\nbb0:\n  exit\nbb0:\n  exit\n}\n";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("duplicate block"));
    }

    #[test]
    fn parse_and_link_reports_undefined_callee() {
        let src = "kernel @k(params=0, regs=0, barriers=0, entry=bb0) {\nbb0:\n  call @nope()\n  exit\n}\n";
        let err = parse_and_link(src).unwrap_err();
        assert!(err.message.contains("undefined function"));
    }

    #[test]
    fn parses_calls_with_rets() {
        let src = "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\nbb0:\n  call @f(%r0, 3) -> (%r1, %r2)\n  exit\n}\ndevice @f(params=2, regs=2, barriers=0, entry=bb0) {\nbb0:\n  ret %r0, %r1\n}\n";
        let m = parse_and_link(src).unwrap();
        assert_eq!(m.functions.len(), 2);
    }
}
