//! The syntax layer: a recursive-descent parser over the
//! [`crate::lexer`] token stream, and the one walk over what it builds.
//!
//! This is the only code in the crate that finds code structure — where
//! fns, impls, structs and enums start and end, which braces match, which
//! lines a `#[cfg(test)]` item covers. Every file is parsed once, in
//! [`crate::SourceFile::new`]; checks read the tree through
//! [`File::items`] (and its typed views) and [`visit_block`]. Lexical
//! scans that need no structure (`.unwrap(` tokens, JSON keys inside a
//! body located here through [`FnDef::body_toks`], inner attributes)
//! stay on tokens.
//!
//! The AST is deliberately small: items (functions with signatures,
//! structs with field types, enums with variant names, impls, consts),
//! blocks, statements, `let` bindings with their bound names, and
//! expressions down to method-call chains. That is the granularity the
//! checks need — guard binding and scope, callee resolution by path,
//! receiver resolution through field accesses — and nothing more.
//! Types are captured as normalized strings (`Mutex<State>`,
//! `&mut TcpStream`), not parsed.
//!
//! Constructs the parser does not model (trait bounds, attribute
//! arguments, item-level macro invocations) are skipped with
//! balanced-delimiter matching, and an expression token it cannot place
//! becomes an [`Expr::Other`] atom. Only a structural failure —
//! unbalanced delimiters or a cursor that stops advancing — stops it;
//! the file then has no items and [`File::error`] says where, which
//! [`crate::run_all`] reports as a `[parse]` finding, so no file is ever
//! scanned half-blind.

use std::ops::Range;

use crate::lexer::{Kind, Tok};

/// A parsed source file: its top-level items.
#[derive(Debug, Default)]
pub struct File {
    /// Top-level items, in source order.
    pub items: Vec<Item>,
    /// `(first, last)` line spans of `#[cfg(test)]` items and statements,
    /// from the attribute to the item's last token.
    pub test_spans: Vec<(usize, usize)>,
    /// The structural failure that stopped the parse, as `(line,
    /// reason)`; `items` is then empty.
    pub error: Option<(usize, String)>,
}

/// One item. Items the checks never look inside parse as [`Item::Other`].
#[derive(Debug)]
pub enum Item {
    /// A function definition (or bodyless trait-method signature).
    Fn(FnDef),
    /// A struct with named fields (tuple/unit structs keep no fields).
    Struct(StructDef),
    /// An `impl` block; `self_ty` is the implementing type's name.
    Impl(ImplDef),
    /// An inline module.
    Mod {
        /// Module name.
        name: String,
        /// Line of the `mod` keyword.
        line: usize,
        /// The module's items.
        items: Vec<Item>,
    },
    /// A `const` or `static` with its initializer expression.
    Const(ConstDef),
    /// An enum with its variant names.
    Enum(EnumDef),
    /// Anything else (traits' non-fn pieces, uses, macros…).
    Other {
        /// Line where the item starts.
        line: usize,
    },
}

/// An enum definition.
#[derive(Debug)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// Line of the name.
    pub line: usize,
    /// `(name, line)` of each variant, in order.
    pub variants: Vec<(String, usize)>,
}

/// A `const NAME: Ty = expr;` (or `static`) item.
#[derive(Debug)]
pub struct ConstDef {
    /// The constant's name.
    pub name: String,
    /// Line of the name.
    pub line: usize,
    /// Normalized type text.
    pub ty: String,
    /// The initializer, if it parsed.
    pub value: Option<Expr>,
}

/// A struct definition with its named fields.
#[derive(Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// Line of the name.
    pub line: usize,
    /// Named fields with normalized type text.
    pub fields: Vec<FieldDef>,
}

/// One named struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Normalized type text (`Mutex<State>`).
    pub ty: String,
    /// Line of the field name.
    pub line: usize,
}

/// An `impl` block and the items inside it.
#[derive(Debug)]
pub struct ImplDef {
    /// The implementing type's name (`impl Trait for Name` → `Name`).
    pub self_ty: String,
    /// Line of the `impl` keyword.
    pub line: usize,
    /// The impl's items (methods, assoc consts).
    pub items: Vec<Item>,
}

/// A function definition.
#[derive(Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Line of the name.
    pub line: usize,
    /// Parameters: `self` appears as a param named `self`.
    pub params: Vec<Param>,
    /// Normalized return-type text; empty for `()`.
    pub ret: String,
    /// The body; `None` for trait-method declarations.
    pub body: Option<Block>,
    /// The body's braces and everything between them, as a range of
    /// the file's comment-free token indices; empty without a body.
    pub body_toks: Range<usize>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// The binding name (patterns collapse to their first binding).
    pub name: String,
    /// Normalized type text.
    pub ty: String,
}

/// A `{ … }` block of statements.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Line of the opening brace.
    pub line: usize,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// A `let` binding.
    Let(LetStmt),
    /// An expression statement (trailing `;` or tail position).
    Expr(Expr),
    /// A nested item (`fn` inside a body, a `use`, …).
    Item(Item),
}

/// A `let` statement.
#[derive(Debug)]
pub struct LetStmt {
    /// Names the pattern binds (`let (a, b) = …` → `[a, b]`).
    pub names: Vec<String>,
    /// Normalized ascribed type text; empty if none.
    pub ty: String,
    /// The initializer, if present.
    pub init: Option<Expr>,
    /// The diverging block of a `let … else { … }`.
    pub else_block: Option<Block>,
    /// Line of the `let`.
    pub line: usize,
}

/// One `match` arm.
#[derive(Debug)]
pub struct Arm {
    /// Names the arm's pattern binds.
    pub names: Vec<String>,
    /// The `if` guard expression, if any.
    pub guard: Option<Box<Expr>>,
    /// The arm body.
    pub body: Box<Expr>,
    /// Line of the pattern.
    pub line: usize,
}

/// An expression, at method-chain granularity.
#[derive(Debug)]
pub enum Expr {
    /// A (possibly qualified) path: `a::b::c`, `self`, `Self`.
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Line of the first segment.
        line: usize,
    },
    /// A literal (number, string, char); `text` is the source lexeme.
    Lit {
        /// The literal's source text (quotes/underscores included).
        text: String,
        /// Line of the literal.
        line: usize,
    },
    /// `callee(args)` where `callee` is any expression.
    Call {
        /// The called expression (usually a `Path`).
        callee: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
        /// Line of the open paren.
        line: usize,
    },
    /// `recv.method(args)`.
    MethodCall {
        /// The receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments in order.
        args: Vec<Expr>,
        /// Line of the method name.
        line: usize,
    },
    /// `recv.field` (including tuple indices `x.0`).
    Field {
        /// The base expression.
        recv: Box<Expr>,
        /// Field name or tuple index.
        name: String,
        /// Line of the field name.
        line: usize,
    },
    /// `recv[index]`.
    Index {
        /// The indexed expression.
        recv: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
        /// Line of the open bracket.
        line: usize,
    },
    /// `expr?`.
    Try {
        /// The inner expression.
        inner: Box<Expr>,
    },
    /// A prefix-operator expression (`&x`, `*x`, `!x`, `-x`).
    Unary {
        /// The operand.
        inner: Box<Expr>,
    },
    /// `lhs op rhs` for any binary operator (including ranges).
    Binary {
        /// Operator text (`==`, `+`, `..`).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand (`Other` for open ranges).
        rhs: Box<Expr>,
    },
    /// `target = value` (and compound assignments).
    Assign {
        /// The assigned place.
        target: Box<Expr>,
        /// The value.
        value: Box<Expr>,
        /// Line of the `=`.
        line: usize,
    },
    /// A block expression.
    Block(Block),
    /// `if [let pat =] cond { … } [else …]`.
    If {
        /// Names bound by an `if let` pattern; empty for plain `if`.
        let_names: Vec<String>,
        /// The condition (scrutinee for `if let`).
        cond: Box<Expr>,
        /// The then-block.
        then: Block,
        /// The else branch: a `Block` or another `If`.
        alt: Option<Box<Expr>>,
        /// Line of the `if`.
        line: usize,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// The arms.
        arms: Vec<Arm>,
        /// Line of the `match`.
        line: usize,
    },
    /// `while [let pat =] cond { … }`.
    While {
        /// Names bound by a `while let` pattern.
        let_names: Vec<String>,
        /// The condition (scrutinee for `while let`).
        cond: Box<Expr>,
        /// The loop body.
        body: Block,
        /// Line of the `while`.
        line: usize,
    },
    /// `loop { … }`.
    Loop {
        /// The loop body.
        body: Block,
        /// Line of the `loop`.
        line: usize,
    },
    /// `for pat in iter { … }`.
    For {
        /// Names the loop pattern binds.
        names: Vec<String>,
        /// The iterated expression.
        iter: Box<Expr>,
        /// The loop body.
        body: Block,
        /// Line of the `for`.
        line: usize,
    },
    /// `|params| body` (and `move` closures).
    Closure {
        /// Parameter binding names.
        params: Vec<String>,
        /// The body expression.
        body: Box<Expr>,
        /// Line of the opening `|`.
        line: usize,
    },
    /// `name!(args)` / `name![…]` / `name!{…}`; arguments are parsed
    /// loosely as a comma-separated expression list.
    Macro {
        /// The macro path.
        path: Vec<String>,
        /// Best-effort parsed arguments.
        args: Vec<Expr>,
        /// Line of the macro name.
        line: usize,
    },
    /// `Path { field: expr, … }`.
    StructLit {
        /// The struct path.
        path: Vec<String>,
        /// `(field name, value)` pairs; `..base` becomes `("..", base)`.
        fields: Vec<(String, Expr)>,
        /// Line of the path.
        line: usize,
    },
    /// `(a, b)` tuples and parenthesized expressions.
    Tuple {
        /// The elements.
        items: Vec<Expr>,
        /// Line of the open paren.
        line: usize,
    },
    /// `[a, b]` arrays (and `[x; n]` repeats).
    Array {
        /// The elements.
        items: Vec<Expr>,
        /// Line of the open bracket.
        line: usize,
    },
    /// `return` / `break` / `continue`, with an optional value.
    Ret {
        /// Which keyword (`return`, `break`, `continue`).
        kind: String,
        /// The carried value, if any.
        inner: Option<Box<Expr>>,
        /// Line of the keyword.
        line: usize,
    },
    /// A token the parser could not place; never an error.
    Other {
        /// Line of the token.
        line: usize,
    },
}

impl Expr {
    /// The 1-based source line this expression starts on.
    pub fn line(&self) -> usize {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Assign { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::While { line, .. }
            | Expr::Loop { line, .. }
            | Expr::For { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Macro { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::Ret { line, .. }
            | Expr::Other { line } => *line,
            Expr::Try { inner } | Expr::Unary { inner } => inner.line(),
            Expr::Binary { lhs, .. } => lhs.line(),
            Expr::Block(b) => b.line,
        }
    }
}

/// Parses a token stream into a [`File`]. Locally unmodeled syntax
/// degrades to [`Expr::Other`] / [`Item::Other`]; a structural failure
/// (unbalanced delimiters, a cursor that stopped advancing) leaves the
/// file without items and sets [`File::error`].
pub fn parse(toks: &[Tok]) -> File {
    let code: Vec<&Tok> =
        toks.iter().filter(|t| !matches!(t.kind, Kind::LineComment | Kind::BlockComment)).collect();
    let mut p = Parser::new(code);
    let mut items = p.parse_items();
    if let (Ok(_), Some(t)) = (&items, p.peek(0)) {
        items = Err((t.line, "unmatched `}`".to_string()));
    }
    let (items, error) = match items {
        Ok(items) => (items, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    File { items, test_spans: p.test_spans, error }
}

impl File {
    /// Every item with its enclosing impl type, in source order: impl,
    /// trait and inline-module bodies are flattened in; items declared
    /// inside fn bodies are not.
    pub fn items(&self) -> Vec<(Option<&str>, &Item)> {
        fn walk<'a>(
            items: &'a [Item],
            self_ty: Option<&'a str>,
            out: &mut Vec<(Option<&'a str>, &'a Item)>,
        ) {
            for item in items {
                out.push((self_ty, item));
                match item {
                    Item::Impl(i) => walk(&i.items, Some(&i.self_ty), out),
                    Item::Mod { items, .. } => walk(items, self_ty, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.items, None, &mut out);
        out
    }

    /// The functions of [`File::items`], with their enclosing impl type.
    pub fn fns(&self) -> impl Iterator<Item = (Option<&str>, &FnDef)> + '_ {
        self.items().into_iter().filter_map(|(ty, item)| match item {
            Item::Fn(d) => Some((ty, d)),
            _ => None,
        })
    }
}

/// A node [`visit_block`] hands to its callback.
#[derive(Clone, Copy, Debug)]
pub enum Node<'a> {
    /// A statement of a block.
    Stmt(&'a Stmt),
    /// An expression, at any depth.
    Expr(&'a Expr),
}

/// The one generic walk over code: calls `f` on every statement and
/// expression under `b`, depth-first in source order, and descends into
/// a node's children only when `f` returns `true`. It reaches `let`
/// initializers and `let … else` blocks, match guards and arm bodies,
/// closure bodies, macro arguments, and the bodies of fns declared
/// inside the block.
pub fn visit_block<'a>(b: &'a Block, f: &mut impl FnMut(Node<'a>) -> bool) {
    for stmt in &b.stmts {
        if !f(Node::Stmt(stmt)) {
            continue;
        }
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    visit_expr(init, f);
                }
                if let Some(eb) = &l.else_block {
                    visit_block(eb, f);
                }
            }
            Stmt::Expr(e) => visit_expr(e, f),
            Stmt::Item(Item::Fn(FnDef { body: Some(body), .. })) => visit_block(body, f),
            Stmt::Item(_) => {}
        }
    }
}

/// [`visit_block`] from one expression: `f` sees `e` itself first.
pub fn visit_expr<'a>(e: &'a Expr, f: &mut impl FnMut(Node<'a>) -> bool) {
    if !f(Node::Expr(e)) {
        return;
    }
    match e {
        Expr::Call { callee: first, args: rest, .. }
        | Expr::MethodCall { recv: first, args: rest, .. } => {
            visit_expr(first, f);
            rest.iter().for_each(|a| visit_expr(a, f));
        }
        Expr::Macro { args: items, .. } | Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
            items.iter().for_each(|a| visit_expr(a, f))
        }
        Expr::StructLit { fields, .. } => fields.iter().for_each(|(_, v)| visit_expr(v, f)),
        Expr::Field { recv: inner, .. }
        | Expr::Try { inner }
        | Expr::Unary { inner }
        | Expr::Closure { body: inner, .. }
        | Expr::Ret { inner: Some(inner), .. } => visit_expr(inner, f),
        Expr::Index { recv: a, index: b, .. }
        | Expr::Binary { lhs: a, rhs: b, .. }
        | Expr::Assign { target: a, value: b, .. } => {
            visit_expr(a, f);
            visit_expr(b, f);
        }
        Expr::Block(body) | Expr::Loop { body, .. } => visit_block(body, f),
        Expr::While { cond, body, .. } | Expr::For { iter: cond, body, .. } => {
            visit_expr(cond, f);
            visit_block(body, f);
        }
        Expr::If { cond, then, alt, .. } => {
            visit_expr(cond, f);
            visit_block(then, f);
            if let Some(alt) = alt {
                visit_expr(alt, f);
            }
        }
        Expr::Match { scrutinee, arms, .. } => {
            visit_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    visit_expr(g, f);
                }
                visit_expr(&arm.body, f);
            }
        }
        Expr::Path { .. }
        | Expr::Lit { .. }
        | Expr::Ret { inner: None, .. }
        | Expr::Other { .. } => {}
    }
}

/// Evaluates a small constant expression (`1 << 16`, `4 * 1024`).
pub fn eval_const(e: &Expr) -> Option<u64> {
    match e {
        Expr::Lit { text, .. } => parse_int(text),
        Expr::Tuple { items, .. } if items.len() == 1 => eval_const(&items[0]),
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = (eval_const(lhs)?, eval_const(rhs)?);
            match op.as_str() {
                "<<" => a.checked_shl(u32::try_from(b).ok()?),
                "*" => a.checked_mul(b),
                "+" => a.checked_add(b),
                "-" => a.checked_sub(b),
                "|" => Some(a | b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Parses an integer literal lexeme: underscores, `0x`/`0o`/`0b`
/// prefixes, and type suffixes (`1024usize`) are handled.
fn parse_int(text: &str) -> Option<u64> {
    let s = text.replace('_', "");
    let (radix, digits) = if let Some(d) = s.strip_prefix("0x") {
        (16, d)
    } else if let Some(d) = s.strip_prefix("0o") {
        (8, d)
    } else if let Some(d) = s.strip_prefix("0b") {
        (2, d)
    } else {
        (10, s.as_str())
    };
    let digits = digits.trim_end_matches(|c: char| {
        c.is_ascii_alphabetic() && !(radix == 16 && c.is_ascii_hexdigit())
    });
    u64::from_str_radix(digits, radix).ok()
}

/// A structural parse failure: `(line, reason)`.
type Parsed<T> = Result<T, (usize, String)>;

struct Parser<'a> {
    toks: Vec<&'a Tok>,
    pos: usize,
    /// `#[cfg(test)]` spans found so far (see [`File::test_spans`]).
    test_spans: Vec<(usize, usize)>,
}

const ITEM_KEYWORDS: [&str; 12] = [
    "fn",
    "struct",
    "enum",
    "trait",
    "impl",
    "mod",
    "const",
    "static",
    "use",
    "type",
    "extern",
    "macro_rules",
];

impl<'a> Parser<'a> {
    fn new(toks: Vec<&'a Tok>) -> Self {
        Self { toks, pos: 0, test_spans: Vec::new() }
    }

    fn peek(&self, ahead: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + ahead).copied()
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_ident(s))
    }

    fn line(&self) -> usize {
        self.peek(0).map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.peek(0);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skips a balanced `(…)`, `[…]` or `{…}` starting at the cursor.
    fn skip_balanced(&mut self) -> Parsed<()> {
        let line = self.line();
        let (open, close) = match self.peek(0) {
            Some(t) if t.is_punct('(') => ('(', ')'),
            Some(t) if t.is_punct('[') => ('[', ']'),
            Some(t) if t.is_punct('{') => ('{', '}'),
            _ => {
                self.pos += 1;
                return Ok(());
            }
        };
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
        }
        Err((line, format!("unclosed `{open}`")))
    }

    /// Skips `#[…]` / `#![…]` attributes, returning the line of an outer
    /// `#[cfg(test)]` among them.
    fn skip_attrs(&mut self) -> Parsed<Option<usize>> {
        let mut cfg_test = None;
        while self.at_punct('#') {
            let line = self.line();
            self.pos += 1;
            let inner = self.eat_punct('!');
            if !inner
                && self.peek(1).is_some_and(|t| t.is_ident("cfg"))
                && self.peek(2).is_some_and(|t| t.is_punct('('))
                && self.peek(3).is_some_and(|t| t.is_ident("test"))
            {
                cfg_test = Some(line);
            }
            if self.at_punct('[') {
                self.skip_balanced()?;
            }
        }
        Ok(cfg_test)
    }

    /// Records a `#[cfg(test)]` span that started at `from` (when set)
    /// and ends with the last consumed token.
    fn close_test_span(&mut self, from: Option<usize>) {
        if let (Some(from), Some(last)) = (from, self.pos.checked_sub(1)) {
            self.test_spans.push((from, self.toks[last].line));
        }
    }

    /// Skips `pub`, `pub(crate)`, `pub(in …)`.
    fn skip_vis(&mut self) -> Parsed<()> {
        if self.at_ident("pub") {
            self.pos += 1;
            if self.at_punct('(') {
                self.skip_balanced()?;
            }
        }
        Ok(())
    }

    /// Skips a balanced `<…>` generics list; `->` inside does not close.
    fn skip_angles(&mut self) -> Parsed<()> {
        let line = self.line();
        let mut depth = 0usize;
        let mut prev_dash = false;
        while let Some(t) = self.bump() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_dash {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            } else if t.is_punct('(') || t.is_punct('[') {
                self.pos -= 1;
                self.skip_balanced()?;
            }
            prev_dash = t.is_punct('-');
        }
        Err((line, "unclosed `<`".into()))
    }

    /// Skips a name, generics, bounds and `where` clauses up to the
    /// item's body `{` or its `;`.
    fn skip_to_body(&mut self) -> Parsed<()> {
        while let Some(t) = self.peek(0) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('<') {
                self.skip_angles()?;
            } else {
                self.pos += 1;
            }
        }
        Ok(())
    }

    /// The identifier at the cursor (consumed) and its line; empty when
    /// the cursor is not on one.
    fn name(&mut self) -> (String, usize) {
        match self.peek(0) {
            Some(t) if matches!(t.kind, Kind::Ident | Kind::RawIdent) => {
                self.pos += 1;
                (t.text.trim_start_matches("r#").to_string(), t.line)
            }
            _ => (String::new(), self.line()),
        }
    }

    /// Collects type tokens until one of `stops` at depth 0, returning
    /// normalized text. Angles, parens and brackets nest; `->` never
    /// closes an angle.
    fn collect_type(&mut self, stops: &[char], stop_idents: &[&str]) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut angle = 0usize;
        let mut paren = 0usize;
        let mut prev_dash = false;
        while let Some(t) = self.peek(0) {
            if angle == 0 && paren == 0 {
                if t.kind == Kind::Punct && stops.iter().any(|c| t.is_punct(*c)) {
                    break;
                }
                if t.kind == Kind::Ident && stop_idents.iter().any(|s| t.is_ident(s)) {
                    break;
                }
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !prev_dash {
                if angle == 0 {
                    break;
                }
                angle -= 1;
            } else if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                if paren == 0 {
                    break;
                }
                paren -= 1;
            }
            prev_dash = t.is_punct('-');
            parts.push(t.text.clone());
            self.pos += 1;
        }
        join_ty(&parts)
    }

    // -----------------------------------------------------------------
    // Items.

    /// Parses items up to a closing `}` (left unconsumed) or the end.
    fn parse_items(&mut self) -> Parsed<Vec<Item>> {
        let mut items = Vec::new();
        while self.peek(0).is_some() && !self.at_punct('}') {
            let before = self.pos;
            let line = self.line();
            let cfg_test = self.skip_attrs()?;
            if self.peek(0).is_none() || self.at_punct('}') {
                break;
            }
            items.push(self.parse_item()?);
            self.close_test_span(cfg_test);
            if self.pos == before {
                return Err((line, "parser stuck at item level".into()));
            }
        }
        Ok(items)
    }

    /// The `{ items }` body of an impl, trait or inline module.
    fn parse_item_body(&mut self) -> Parsed<Vec<Item>> {
        let line = self.line();
        self.pos += 1; // `{`
        let items = self.parse_items()?;
        if !self.eat_punct('}') {
            return Err((line, "unclosed `{`".into()));
        }
        Ok(items)
    }

    /// Parses one item, its attributes already skipped.
    fn parse_item(&mut self) -> Parsed<Item> {
        self.skip_vis()?;
        // Qualifiers: `unsafe`, `default`, `const fn`, `extern "C" fn`.
        loop {
            let fn_at = |k: usize| self.peek(k).is_some_and(|t| t.is_ident("fn"));
            self.pos += if self.at_ident("unsafe")
                || self.at_ident("default")
                || (self.at_ident("const") || self.at_ident("extern")) && fn_at(1)
            {
                1
            } else if self.at_ident("extern") && fn_at(2) {
                2
            } else {
                break;
            };
        }
        let line = self.line();
        let Some(t) = self.peek(0) else { return Ok(Item::Other { line }) };
        match t.text.as_str() {
            _ if t.kind != Kind::Ident => {}
            "fn" => return Ok(Item::Fn(self.parse_fn()?)),
            "struct" => return self.parse_struct(),
            "enum" => return self.parse_enum(),
            "impl" => return self.parse_impl(),
            "mod" => return self.parse_mod(),
            "const" | "static" => return self.parse_const(),
            "trait" | "union" | "macro_rules" => {
                self.pos += 1;
                self.eat_punct('!'); // macro_rules!
                self.skip_to_body()?;
                if t.is_ident("trait") && self.at_punct('{') {
                    // Trait bodies parse for their fn signatures.
                    let items = self.parse_item_body()?;
                    return Ok(Item::Mod { name: String::new(), line, items });
                }
                if self.at_punct('{') {
                    self.skip_balanced()?;
                }
                self.eat_punct(';');
                return Ok(Item::Other { line });
            }
            "use" | "extern" | "type" => {
                // Through the `;`, or through a `{ … }` group (`extern
                // "C" { … }`; in `use a::{b, c};` the `;` is left over).
                while let Some(t) = self.peek(0) {
                    if t.is_punct('{') {
                        self.skip_balanced()?;
                        break;
                    }
                    self.pos += 1;
                    if t.is_punct(';') {
                        break;
                    }
                }
                return Ok(Item::Other { line });
            }
            _ if self.peek(1).is_some_and(|n| n.is_punct('!')) => {
                // An item-level macro invocation: `name! { … }`.
                self.pos += 2;
                self.skip_balanced()?;
                self.eat_punct(';');
                return Ok(Item::Other { line });
            }
            _ => {}
        }
        // Not an item start we model; consume one token.
        self.pos += 1;
        Ok(Item::Other { line })
    }

    fn parse_fn(&mut self) -> Parsed<FnDef> {
        self.pos += 1; // `fn`
        let (name, line) = self.name();
        if self.at_punct('<') {
            self.skip_angles()?;
        }
        let mut params = Vec::new();
        if self.at_punct('(') {
            self.pos += 1;
            while let Some(t) = self.peek(0) {
                if t.is_punct(')') {
                    self.pos += 1;
                    break;
                }
                self.skip_attrs()?;
                // Pattern part: take idents until `:` / `,` / `)`.
                let mut pname = String::new();
                let mut is_self = false;
                while let Some(t) = self.peek(0) {
                    if t.is_punct(':') || t.is_punct(',') || t.is_punct(')') {
                        break;
                    }
                    if t.is_ident("self") {
                        is_self = true;
                        pname = "self".into();
                    } else if t.kind == Kind::Ident
                        && !t.is_ident("mut")
                        && !t.is_ident("ref")
                        && pname.is_empty()
                    {
                        pname = t.text.clone();
                    } else if t.is_punct('(') || t.is_punct('[') {
                        self.skip_balanced()?;
                        continue;
                    }
                    self.pos += 1;
                }
                let ty = if self.eat_punct(':') {
                    self.collect_type(&[',', ')'], &[])
                } else if is_self {
                    "Self".into()
                } else {
                    String::new()
                };
                if !pname.is_empty() {
                    params.push(Param { name: pname, ty });
                }
                self.eat_punct(',');
            }
        }
        let mut ret = String::new();
        if self.at_punct('-') && self.peek(1).is_some_and(|t| t.is_punct('>')) {
            self.pos += 2;
            ret = self.collect_type(&['{', ';'], &["where"]);
        }
        if self.at_ident("where") {
            self.skip_to_body()?;
        }
        let open = self.pos;
        let body = if self.at_punct('{') {
            Some(self.parse_block()?)
        } else {
            self.eat_punct(';');
            None
        };
        let body_toks = if body.is_some() { open..self.pos } else { open..open };
        Ok(FnDef { name, line, params, ret, body, body_toks })
    }

    fn parse_struct(&mut self) -> Parsed<Item> {
        self.pos += 1; // `struct`
        let (name, line) = self.name();
        if self.at_punct('<') {
            self.skip_angles()?;
        }
        let mut fields = Vec::new();
        if self.at_punct('(') {
            // Tuple struct: skip fields and the trailing `;`.
            self.skip_balanced()?;
            self.eat_punct(';');
        } else if self.at_punct('{') {
            self.pos += 1;
            while let Some(t) = self.peek(0) {
                if t.is_punct('}') {
                    self.pos += 1;
                    break;
                }
                self.skip_attrs()?;
                self.skip_vis()?;
                let Some(ft) = self.peek(0) else { break };
                if ft.kind == Kind::Ident && self.peek(1).is_some_and(|t| t.is_punct(':')) {
                    let fname = ft.text.clone();
                    let fline = ft.line;
                    self.pos += 2;
                    let ty = self.collect_type(&[',', '}'], &[]);
                    fields.push(FieldDef { name: fname, ty, line: fline });
                    self.eat_punct(',');
                } else {
                    self.pos += 1;
                }
            }
        } else {
            self.eat_punct(';');
        }
        Ok(Item::Struct(StructDef { name, line, fields }))
    }

    fn parse_enum(&mut self) -> Parsed<Item> {
        self.pos += 1; // `enum`
        let (name, line) = self.name();
        self.skip_to_body()?;
        let mut variants = Vec::new();
        if self.at_punct('{') {
            let open = self.line();
            self.pos += 1;
            loop {
                self.skip_attrs()?;
                match self.peek(0) {
                    None => return Err((open, "unclosed `{`".into())),
                    Some(t) if t.is_punct('}') => break,
                    Some(t) if t.kind == Kind::Ident => variants.push((t.text.clone(), t.line)),
                    Some(_) => {}
                }
                // Skip the payload and any discriminant, through the `,`.
                while let Some(t) = self.peek(0) {
                    if t.is_punct('}') {
                        break;
                    }
                    let comma = t.is_punct(',');
                    self.skip_balanced()?;
                    if comma {
                        break;
                    }
                }
            }
            self.pos += 1; // `}`
        } else {
            self.eat_punct(';');
        }
        Ok(Item::Enum(EnumDef { name, line, variants }))
    }

    fn parse_impl(&mut self) -> Parsed<Item> {
        let line = self.line();
        self.pos += 1; // `impl`
        if self.at_punct('<') {
            self.skip_angles()?;
        }
        // `impl [Trait for] Type { … }`: the self type is the last path
        // ident before the body (generics skipped).
        let mut self_ty = String::new();
        while let Some(t) = self.peek(0) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('<') {
                self.skip_angles()?;
            } else {
                if t.kind == Kind::Ident && !t.is_ident("for") && !t.is_ident("where") {
                    self_ty = t.text.clone();
                }
                self.pos += 1;
            }
        }
        let mut items = Vec::new();
        if self.at_punct('{') {
            items = self.parse_item_body()?;
        } else {
            self.eat_punct(';');
        }
        Ok(Item::Impl(ImplDef { self_ty, line, items }))
    }

    fn parse_mod(&mut self) -> Parsed<Item> {
        let line = self.line();
        self.pos += 1; // `mod`
        let (name, _) = self.name();
        if self.at_punct('{') {
            let items = self.parse_item_body()?;
            Ok(Item::Mod { name, line, items })
        } else {
            self.eat_punct(';');
            Ok(Item::Other { line })
        }
    }

    fn parse_const(&mut self) -> Parsed<Item> {
        self.pos += 1; // `const` / `static`
        if self.at_ident("mut") {
            self.pos += 1;
        }
        let (name, line) = self.name();
        let ty =
            if self.eat_punct(':') { self.collect_type(&['=', ';'], &[]) } else { String::new() };
        let value = if self.eat_punct('=') { Some(self.parse_expr(false)) } else { None };
        self.eat_punct(';');
        Ok(Item::Const(ConstDef { name, line, ty, value }))
    }

    // -----------------------------------------------------------------
    // Blocks and statements.

    fn parse_block(&mut self) -> Parsed<Block> {
        let line = self.line();
        if !self.eat_punct('{') {
            return Err((line, "expected `{`".into()));
        }
        let mut stmts = Vec::new();
        loop {
            while self.eat_punct(';') {}
            if self.at_punct('}') {
                self.pos += 1;
                break;
            }
            if self.peek(0).is_none() {
                return Err((line, "unclosed `{`".into()));
            }
            let before = self.pos;
            let cfg_test = self.skip_attrs()?;
            // Labeled loops: `'outer: loop { … }`.
            if self.peek(0).is_some_and(|t| t.kind == Kind::Lifetime)
                && self.peek(1).is_some_and(|t| t.is_punct(':'))
            {
                self.pos += 2;
            }
            if self.at_ident("let") {
                stmts.push(Stmt::Let(self.parse_let()?));
            } else if self.peek(0).is_some_and(|t| ITEM_KEYWORDS.iter().any(|k| t.is_ident(k)))
                || self.at_ident("pub")
                || (self.at_ident("unsafe") && self.peek(1).is_some_and(|t| t.is_ident("fn")))
            {
                stmts.push(Stmt::Item(self.parse_item()?));
            } else {
                let e = self.parse_expr(false);
                stmts.push(Stmt::Expr(e));
                self.eat_punct(';');
            }
            self.close_test_span(cfg_test);
            if self.pos == before {
                return Err((self.line(), "parser stuck in block".into()));
            }
        }
        Ok(Block { stmts, line })
    }

    fn parse_let(&mut self) -> Parsed<LetStmt> {
        let line = self.line();
        self.pos += 1; // `let`
        let names = self.parse_pattern(&[':', '=', ';'], &["else"]);
        let ty = if self.eat_punct(':') {
            self.collect_type(&['=', ';'], &["else"])
        } else {
            String::new()
        };
        let init = if self.eat_punct('=') { Some(self.parse_expr(false)) } else { None };
        let else_block = if self.at_ident("else") {
            self.pos += 1;
            Some(self.parse_block()?)
        } else {
            None
        };
        self.eat_punct(';');
        Ok(LetStmt { names, ty, init, else_block, line })
    }

    /// Collects binding names from a pattern, stopping at any of `stops`
    /// (punct) or `stop_idents` at delimiter depth 0.
    fn parse_pattern(&mut self, stops: &[char], stop_idents: &[&str]) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0usize;
        while let Some(t) = self.peek(0) {
            if depth == 0 {
                if t.kind == Kind::Punct && stops.iter().any(|c| t.is_punct(*c)) {
                    break;
                }
                if t.kind == Kind::Ident && stop_idents.iter().any(|s| t.is_ident(s)) {
                    break;
                }
                // `=>` ends match-arm patterns even when `=` not listed.
                if t.is_punct('=') && self.peek(1).is_some_and(|n| n.is_punct('>')) {
                    break;
                }
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if t.kind == Kind::Ident {
                let skip_kw = matches!(t.text.as_str(), "ref" | "mut" | "box" | "_");
                let next = self.peek(1);
                // `Foo(..)`, `Foo{..}`, `mac!(..)` heads never bind.
                let is_ctor =
                    next.is_some_and(|n| n.is_punct('(') || n.is_punct('{') || n.is_punct('!'));
                // `a::b` path segments never bind; a *single* colon is a
                // struct-pattern field label (skip, the binding follows)
                // — except at depth 0, where it is a type ascription and
                // the ident before it is the binding.
                let follows_colons = next.is_some_and(|n| n.is_punct(':'))
                    && self.peek(2).is_some_and(|n| n.is_punct(':'));
                let follows_label =
                    next.is_some_and(|n| n.is_punct(':')) && !follows_colons && depth > 0;
                let after_colons = self.pos >= 2
                    && self.toks.get(self.pos - 1).is_some_and(|p| p.is_punct(':'))
                    && self.toks.get(self.pos - 2).is_some_and(|p| p.is_punct(':'));
                let binds = !skip_kw
                    && !is_ctor
                    && !follows_colons
                    && !follows_label
                    && !after_colons
                    && t.text.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                    && t.text != "self";
                if binds {
                    names.push(t.text.clone());
                }
            }
            self.pos += 1;
        }
        // Struct patterns: `Struct { field: binding }` — the ident after
        // the colon was skipped above (prev token is `:`), so re-walk is
        // unnecessary: shorthand fields and plain bindings are caught.
        names.dedup();
        names
    }

    // -----------------------------------------------------------------
    // Expressions.

    /// Parses one expression. `ns` (no-struct) forbids `Path { … }`
    /// struct literals, as in `if`/`while`/`match` head position.
    fn parse_expr(&mut self, ns: bool) -> Expr {
        let lhs = self.parse_prefix(ns);
        self.parse_binary(lhs, ns)
    }

    fn parse_binary(&mut self, mut lhs: Expr, ns: bool) -> Expr {
        loop {
            // `as Type` casts.
            if self.at_ident("as") {
                self.pos += 1;
                let _ = self.collect_type(
                    &[';', ',', ')', ']', '}', '=', '+', '-', '/', '%', '?', '{', '.'],
                    &["as", "else"],
                );
                continue;
            }
            let Some(op) = self.binary_op_at() else { break };
            // `=` and the compound assignments (`+=`, `<<=`, …).
            let compound = !matches!(op.as_str(), "=" | "==" | "!=" | "<=" | ">=" | "&&" | "||")
                && !op.starts_with('.')
                && self.peek(op.len()).is_some_and(|t| t.is_punct('='));
            if op == "=" || compound {
                let line = self.line();
                self.pos += if compound { op.len() + 1 } else { 1 };
                let value = self.parse_expr(ns);
                lhs = Expr::Assign { target: Box::new(lhs), value: Box::new(value), line };
                continue;
            }
            self.pos += op.len();
            if op == ".." || op == "..=" {
                // Open-ended ranges: the rhs may be absent.
                if self.expr_ends_here(ns) {
                    lhs = Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(Expr::Other { line: self.line() }),
                    };
                    continue;
                }
            }
            let rhs = self.parse_prefix(ns);
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        lhs
    }

    /// The binary operator starting at the cursor, if any. Multi-char
    /// operators are reassembled from single-char punct tokens.
    fn binary_op_at(&self) -> Option<String> {
        let t = self.peek(0)?;
        if t.kind != Kind::Punct {
            return None;
        }
        let c = t.text.chars().next()?;
        let n = self.peek(1).filter(|n| n.kind == Kind::Punct).map(|n| n.text.chars().next());
        let n = n.flatten();
        let op = match (c, n) {
            ('=', Some('>')) => return None, // match arm arrow
            ('=', Some('=')) => "==",
            ('=', _) => "=",
            ('!', Some('=')) => "!=",
            ('<', Some('=')) => "<=",
            ('>', Some('=')) => ">=",
            ('<', Some('<')) => "<<",
            ('>', Some('>')) => ">>",
            ('&', Some('&')) => "&&",
            ('|', Some('|')) => "||",
            ('.', Some('.')) => {
                if self.peek(2).is_some_and(|t| t.is_punct('=')) {
                    "..="
                } else {
                    ".."
                }
            }
            ('+' | '-' | '*' | '/' | '%' | '^' | '<' | '>' | '&' | '|', _) => match c {
                '+' => "+",
                '-' => "-",
                '*' => "*",
                '/' => "/",
                '%' => "%",
                '^' => "^",
                '<' => "<",
                '>' => ">",
                '&' => "&",
                '|' => "|",
                _ => return None,
            },
            _ => return None,
        };
        Some(op.to_string())
    }

    /// Whether the cursor sits where an expression cannot continue.
    fn expr_ends_here(&self, ns: bool) -> bool {
        match self.peek(0) {
            None => true,
            Some(t) => {
                t.is_punct(';')
                    || t.is_punct(',')
                    || t.is_punct(')')
                    || t.is_punct(']')
                    || t.is_punct('}')
                    || t.is_ident("else")
                    || (ns && t.is_punct('{'))
                    || (t.is_punct('=') && self.peek(1).is_some_and(|n| n.is_punct('>')))
            }
        }
    }

    fn parse_prefix(&mut self, ns: bool) -> Expr {
        // Prefix operators.
        if self.at_punct('&') || self.at_punct('*') || self.at_punct('!') || self.at_punct('-') {
            self.pos += 1;
            if self.at_ident("mut") {
                self.pos += 1;
            }
            let inner = self.parse_prefix(ns);
            return Expr::Unary { inner: Box::new(inner) };
        }
        if self.at_ident("move") {
            self.pos += 1;
        }
        let primary = self.parse_primary(ns);
        self.parse_postfix(primary)
    }

    fn parse_postfix(&mut self, mut e: Expr) -> Expr {
        loop {
            if self.at_punct('.') {
                // `..` is a range, not a postfix access.
                if self.peek(1).is_some_and(|t| t.is_punct('.')) {
                    break;
                }
                let Some(next) = self.peek(1) else { break };
                match next.kind {
                    Kind::Num => {
                        self.pos += 2;
                        e = Expr::Field {
                            recv: Box::new(e),
                            name: next.text.clone(),
                            line: next.line,
                        };
                    }
                    Kind::Ident | Kind::RawIdent => {
                        self.pos += 2;
                        let name = next.text.trim_start_matches("r#").to_string();
                        let line = next.line;
                        // Turbofish between name and args.
                        if self.at_punct(':')
                            && self.peek(1).is_some_and(|t| t.is_punct(':'))
                            && self.peek(2).is_some_and(|t| t.is_punct('<'))
                        {
                            self.pos += 2;
                            let _ = self.skip_angles();
                        }
                        if self.at_punct('(') {
                            let args = self.parse_list(')');
                            e = Expr::MethodCall { recv: Box::new(e), method: name, args, line };
                        } else {
                            e = Expr::Field { recv: Box::new(e), name, line };
                        }
                    }
                    _ => break,
                }
            } else if self.at_punct('?') {
                self.pos += 1;
                e = Expr::Try { inner: Box::new(e) };
            } else if self.at_punct('(') {
                let line = self.line();
                let args = self.parse_list(')');
                e = Expr::Call { callee: Box::new(e), args, line };
            } else if self.at_punct('[') {
                let line = self.line();
                self.pos += 1;
                let index = self.parse_expr(false);
                self.eat_punct(']');
                e = Expr::Index { recv: Box::new(e), index: Box::new(index), line };
            } else {
                break;
            }
        }
        e
    }

    /// Parses a delimited list — `(a, b)`, `[x; n]` — from its open
    /// delimiter at the cursor through `close` (or the end), items split
    /// at `,` and `;`.
    fn parse_list(&mut self, close: char) -> Vec<Expr> {
        self.pos += 1;
        let mut items = Vec::new();
        while !self.eat_punct(close) && self.peek(0).is_some() {
            let before = self.pos;
            items.push(self.parse_expr(false));
            while self.eat_punct(',') || self.eat_punct(';') {}
            if self.pos == before {
                self.pos += 1; // never loop in place
            }
        }
        items
    }

    fn parse_primary(&mut self, ns: bool) -> Expr {
        let Some(t) = self.peek(0) else {
            return Expr::Other { line: 0 };
        };
        let line = t.line;
        match t.kind {
            Kind::Num | Kind::Str | Kind::Char => {
                self.pos += 1;
                Expr::Lit { text: t.text.clone(), line }
            }
            Kind::Lifetime | Kind::LineComment | Kind::BlockComment => {
                // Comments are stripped before parsing; a lifetime in
                // expression position is opaque.
                self.pos += 1;
                Expr::Other { line }
            }
            Kind::Punct => match t.text.chars().next() {
                Some('(') => Expr::Tuple { items: self.parse_list(')'), line },
                Some('[') => Expr::Array { items: self.parse_list(']'), line },
                Some('{') => match self.parse_block() {
                    Ok(b) => Expr::Block(b),
                    Err(_) => Expr::Other { line },
                },
                Some('|') => self.parse_closure(line),
                Some('.') => {
                    // Leading range `..x` — handled as Binary by caller;
                    // here it appears as primary in `..` / `..=expr`.
                    self.pos += 1;
                    if self.at_punct('.') {
                        self.pos += 1;
                        self.eat_punct('=');
                        if self.expr_ends_here(ns) {
                            return Expr::Other { line };
                        }
                        let rhs = self.parse_prefix(ns);
                        return Expr::Binary {
                            op: "..".into(),
                            lhs: Box::new(Expr::Other { line }),
                            rhs: Box::new(rhs),
                        };
                    }
                    Expr::Other { line }
                }
                _ => {
                    self.pos += 1;
                    Expr::Other { line }
                }
            },
            Kind::Ident | Kind::RawIdent => self.parse_ident_expr(ns, line),
        }
    }

    fn parse_closure(&mut self, line: usize) -> Expr {
        // `||` (empty params) or `|pat, …|`.
        self.pos += 1;
        let params = if self.at_punct('|') {
            self.pos += 1;
            Vec::new()
        } else {
            let names = self.parse_pattern(&['|'], &[]);
            self.eat_punct('|');
            names
        };
        if self.at_punct('-') && self.peek(1).is_some_and(|t| t.is_punct('>')) {
            self.pos += 2;
            let _ = self.collect_type(&['{'], &[]);
        }
        let body = self.parse_expr(false);
        Expr::Closure { params, body: Box::new(body), line }
    }

    fn parse_ident_expr(&mut self, ns: bool, line: usize) -> Expr {
        let t = self.peek(0).expect("caller checked");
        match t.text.as_str() {
            "if" => return self.parse_if(line),
            "match" => return self.parse_match(line),
            "while" => {
                self.pos += 1;
                let (let_names, cond) = self.parse_cond();
                let body = self.parse_block().unwrap_or_default();
                return Expr::While { let_names, cond: Box::new(cond), body, line };
            }
            "loop" => {
                self.pos += 1;
                let body = self.parse_block().unwrap_or_default();
                return Expr::Loop { body, line };
            }
            "for" => {
                self.pos += 1;
                let names = self.parse_pattern(&[], &["in"]);
                self.eat_ident("in");
                let iter = self.parse_expr(true);
                let body = self.parse_block().unwrap_or_default();
                return Expr::For { names, iter: Box::new(iter), body, line };
            }
            "unsafe" => {
                self.pos += 1;
                return match self.parse_block() {
                    Ok(b) => Expr::Block(b),
                    Err(_) => Expr::Other { line },
                };
            }
            "return" | "break" | "continue" => {
                let kind = t.text.clone();
                self.pos += 1;
                if kind == "break" && self.peek(0).is_some_and(|t| t.kind == Kind::Lifetime) {
                    self.pos += 1;
                }
                let inner = if self.expr_ends_here(ns) {
                    None
                } else {
                    Some(Box::new(self.parse_expr(ns)))
                };
                return Expr::Ret { kind, inner, line };
            }
            "move" => {
                self.pos += 1;
                if self.at_punct('|') {
                    return self.parse_closure(self.line());
                }
                return Expr::Other { line };
            }
            _ => {}
        }
        // A path: `a::b::c`, with turbofish segments skipped.
        let mut segs = vec![t.text.trim_start_matches("r#").to_string()];
        self.pos += 1;
        while self.at_punct(':') && self.peek(1).is_some_and(|n| n.is_punct(':')) {
            self.pos += 2;
            if self.at_punct('<') {
                let _ = self.skip_angles();
                continue;
            }
            match self.peek(0) {
                Some(n) if matches!(n.kind, Kind::Ident | Kind::RawIdent) => {
                    segs.push(n.text.trim_start_matches("r#").to_string());
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Macro invocation.
        if self.at_punct('!')
            && self.peek(1).is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
        {
            self.pos += 1;
            let args = self.parse_macro_args();
            return Expr::Macro { path: segs, args, line };
        }
        // Struct literal.
        if self.at_punct('{') && !ns {
            return self.parse_struct_lit(segs, line);
        }
        if self.at_punct('(') {
            let args = self.parse_list(')');
            return Expr::Call { callee: Box::new(Expr::Path { segs, line }), args, line };
        }
        Expr::Path { segs, line }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `(let_names, cond)` for `if`/`while` heads, handling `let pat =`.
    fn parse_cond(&mut self) -> (Vec<String>, Expr) {
        if self.at_ident("let") {
            self.pos += 1;
            let names = self.parse_pattern(&['='], &[]);
            self.eat_punct('=');
            (names, self.parse_expr(true))
        } else {
            (Vec::new(), self.parse_expr(true))
        }
    }

    fn parse_if(&mut self, line: usize) -> Expr {
        self.pos += 1; // `if`
        let (let_names, cond) = self.parse_cond();
        let then = self.parse_block().unwrap_or_default();
        let alt = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.parse_if(self.line())))
            } else {
                match self.parse_block() {
                    Ok(b) => Some(Box::new(Expr::Block(b))),
                    Err(_) => None,
                }
            }
        } else {
            None
        };
        Expr::If { let_names, cond: Box::new(cond), then, alt, line }
    }

    fn parse_match(&mut self, line: usize) -> Expr {
        self.pos += 1; // `match`
        let scrutinee = self.parse_expr(true);
        let mut arms = Vec::new();
        if self.eat_punct('{') {
            loop {
                while self.eat_punct(',') {}
                if self.eat_punct('}') || self.peek(0).is_none() {
                    break;
                }
                let before = self.pos;
                let _ = self.skip_attrs();
                self.eat_punct('|');
                let arm_line = self.line();
                let names = self.parse_pattern(&[], &["if"]);
                let guard =
                    if self.eat_ident("if") { Some(Box::new(self.parse_expr(true))) } else { None };
                // `=>`
                self.eat_punct('=');
                self.eat_punct('>');
                let body = self.parse_expr(false);
                arms.push(Arm { names, guard, body: Box::new(body), line: arm_line });
                if self.pos == before {
                    self.pos += 1;
                }
            }
        }
        Expr::Match { scrutinee: Box::new(scrutinee), arms, line }
    }

    fn parse_struct_lit(&mut self, path: Vec<String>, line: usize) -> Expr {
        self.pos += 1; // `{`
        let mut fields = Vec::new();
        loop {
            while self.eat_punct(',') {}
            if self.eat_punct('}') || self.peek(0).is_none() {
                break;
            }
            let before = self.pos;
            if self.at_punct('.') && self.peek(1).is_some_and(|t| t.is_punct('.')) {
                self.pos += 2;
                let base = self.parse_expr(false);
                fields.push(("..".to_string(), base));
            } else if let Some(ft) = self.peek(0) {
                if ft.kind == Kind::Ident {
                    let name = ft.text.clone();
                    self.pos += 1;
                    if self.eat_punct(':') {
                        fields.push((name, self.parse_expr(false)));
                    } else {
                        // Shorthand `Struct { field }`.
                        let segs = vec![name.clone()];
                        fields.push((name, Expr::Path { segs, line: ft.line }));
                    }
                } else {
                    self.pos += 1;
                }
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
        Expr::StructLit { path, fields, line }
    }

    /// Parses macro arguments — the delimited token group at the cursor,
    /// loosely split into expressions. Pieces that are not expressions
    /// become `Other` atoms: close enough for call/lock detection inside
    /// `emit!`-style macros.
    fn parse_macro_args(&mut self) -> Vec<Expr> {
        let close = match self.peek(0).map(|t| t.text.as_str()) {
            Some("(") => ')',
            Some("[") => ']',
            _ => '}',
        };
        let open = self.pos;
        // A sub-parser over just the group keeps a misparse inside it; an
        // unclosed group runs to the end, where the enclosing block fails.
        let _ = self.skip_balanced();
        Parser::new(self.toks[open..self.pos].to_vec()).parse_list(close)
    }
}

/// Joins type tokens into normalized text: a space only where two
/// word-ish tokens would otherwise fuse (`&mut TcpStream`,
/// `Mutex<SvcState>`).
fn join_ty(parts: &[String]) -> String {
    let mut out = String::new();
    for p in parts {
        let fuse = out.chars().last().is_some_and(|a| a.is_ascii_alphanumeric() || a == '_')
            && p.chars().next().is_some_and(|b| b.is_ascii_alphanumeric() || b == '_');
        if fuse {
            out.push(' ');
        }
        out.push_str(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(src: &str) -> File {
        let f = parse(&lex(src));
        assert_eq!(f.error, None, "parses");
        f
    }

    fn first_fn(f: &File) -> &FnDef {
        fn find(items: &[Item]) -> Option<&FnDef> {
            for i in items {
                match i {
                    Item::Fn(d) => return Some(d),
                    Item::Impl(im) => {
                        if let Some(d) = find(&im.items) {
                            return Some(d);
                        }
                    }
                    Item::Mod { items, .. } => {
                        if let Some(d) = find(items) {
                            return Some(d);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        find(&f.items).expect("has a fn")
    }

    #[test]
    fn fn_signature_and_body_parse() {
        let f = file("impl Svc { pub(crate) fn lock(&self) -> MutexGuard<'_, SvcState> { self.state.lock().unwrap() } }");
        let d = first_fn(&f);
        assert_eq!(d.name, "lock");
        assert!(d.ret.contains("MutexGuard<"));
        assert_eq!(d.params[0].name, "self");
        let body = d.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 1);
        match &body.stmts[0] {
            Stmt::Expr(Expr::MethodCall { method, recv, .. }) => {
                assert_eq!(method, "unwrap");
                match recv.as_ref() {
                    Expr::MethodCall { method, .. } => assert_eq!(method, "lock"),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn struct_fields_keep_type_text() {
        let f = file(
            "pub struct S { pub a: Mutex<Vec<u32>>, b: std::collections::HashMap<u64, Lease>, }",
        );
        let Item::Struct(s) = &f.items[0] else { panic!("a struct") };
        let fields: Vec<_> = s.fields.iter().map(|f| f.ty.clone()).collect();
        assert!(fields[0].contains("Mutex<"));
        assert!(fields[1].contains("HashMap<"));
    }

    #[test]
    fn let_bindings_collect_names_and_init() {
        let f = file("fn f() { let (a, b) = pair(); let Some(x) = opt else { return }; let mut c: u32 = 0; }");
        let d = first_fn(&f);
        let body = d.body.as_ref().unwrap();
        match &body.stmts[0] {
            Stmt::Let(l) => assert_eq!(l.names, vec!["a", "b"]),
            other => panic!("unexpected {other:?}"),
        }
        match &body.stmts[1] {
            Stmt::Let(l) => {
                assert_eq!(l.names, vec!["x"]);
                assert!(l.else_block.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &body.stmts[2] {
            Stmt::Let(l) => {
                assert_eq!(l.names, vec!["c"]);
                assert_eq!(l.ty, "u32");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_let_match_and_loops_nest() {
        let src = "fn f(x: Option<u32>) { if let Some(v) = x { g(v); } match x { Some(v) => h(v), None => {} } while running() { step(); } for (k, v) in map.iter() { use_it(k, v); } }";
        let f = file(src);
        let d = first_fn(&f);
        let body = d.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 4);
        match &body.stmts[0] {
            Stmt::Expr(Expr::If { let_names, .. }) => assert_eq!(let_names, &["v"]),
            other => panic!("unexpected {other:?}"),
        }
        match &body.stmts[1] {
            Stmt::Expr(Expr::Match { arms, .. }) => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].names, vec!["v"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &body.stmts[3] {
            Stmt::Expr(Expr::For { names, .. }) => assert_eq!(names, &["k", "v"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chains_closures_macros_and_turbofish() {
        let src = r#"fn f() { let ids: Vec<u64> = st.leases.keys().copied().collect::<Vec<_>>(); emit!(Level::Info, "c", &[("k", v.into())]); spawn(move || { work(); }); }"#;
        let f = file(src);
        let d = first_fn(&f);
        let body = d.body.as_ref().unwrap();
        match &body.stmts[0] {
            Stmt::Let(l) => match l.init.as_ref().unwrap() {
                Expr::MethodCall { method, .. } => assert_eq!(method, "collect"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        match &body.stmts[1] {
            Stmt::Expr(Expr::Macro { path, args, .. }) => {
                assert_eq!(path, &["emit"]);
                assert!(args.len() >= 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn struct_literals_and_no_struct_contexts() {
        let src = "fn f() { let c = Conn { slot: None, view: v.clone() }; if conn.slot.is_some() { reader.set_cap(MAX_FRAME); } }";
        let f = file(src);
        let d = first_fn(&f);
        let body = d.body.as_ref().unwrap();
        match &body.stmts[0] {
            Stmt::Let(l) => match l.init.as_ref().unwrap() {
                Expr::StructLit { path, fields, .. } => {
                    assert_eq!(path, &["Conn"]);
                    assert_eq!(fields.len(), 2);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        match &body.stmts[1] {
            Stmt::Expr(Expr::If { then, .. }) => assert_eq!(then.stmts.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn consts_parse_and_evaluate() {
        let f = file("pub const HELLO_FRAME_CAP: usize = 1 << 16; const MAX: usize = 4 * 1024;");
        let vals: Vec<_> = f
            .items()
            .into_iter()
            .filter_map(|(_, i)| match i {
                Item::Const(c) => Some((c.name.clone(), c.value.as_ref().and_then(eval_const))),
                _ => None,
            })
            .collect();
        assert_eq!(vals[0], ("HELLO_FRAME_CAP".to_string(), Some(1 << 16)));
        assert_eq!(vals[1], ("MAX".to_string(), Some(4096)));
    }

    #[test]
    fn labeled_loops_ranges_and_casts_do_not_derail() {
        let src = "fn f(n: usize) -> f64 { 'outer: loop { for i in 0..n { if i > 3 { break 'outer; } } } ; n as f64 * 0.5 }";
        let f = file(src);
        let d = first_fn(&f);
        assert!(d.body.is_some());
        assert_eq!(d.ret, "f64");
    }

    #[test]
    fn trait_bodies_expose_method_signatures() {
        let f = file("pub trait Check { fn id(&self) -> &'static str; fn run(&self, ws: &Workspace) { default() } }");
        let names: Vec<_> = f.fns().map(|(_, d)| d.name.as_str()).collect();
        assert_eq!(names, vec!["id", "run"]);
    }

    #[test]
    fn enums_items_and_bodies_are_located() {
        let src = "pub enum Msg { #[doc = \"x\"] Hello { v: u32 }, Bye(u8), Stop = 3 }\n\
                   proptest! { fn hidden() {} }\n\
                   impl Msg { const fn to_json(&self) -> u32 { 1 } }";
        let f = file(src);
        let Item::Enum(e) = &f.items[0] else { panic!("an enum") };
        let names: Vec<_> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Hello", "Bye", "Stop"]);
        let fns: Vec<_> = f.fns().collect();
        assert_eq!(fns.len(), 1);
        let (ty, to_json) = fns[0];
        assert_eq!((ty, to_json.name.as_str()), (Some("Msg"), "to_json"));
        let toks = lex(src);
        let body: Vec<&str> =
            toks[to_json.body_toks.clone()].iter().map(|t| t.text.as_str()).collect();
        assert_eq!(body, vec!["{", "1", "}"]);
    }

    #[test]
    fn compound_assignment_in_an_arm_does_not_derail() {
        let f = file("fn f() { match p { Some(x) => g += x, None => g -= 1 } }\nfn after() {}");
        let names: Vec<_> = f.fns().map(|(_, d)| d.name.as_str()).collect();
        assert_eq!(names, vec!["f", "after"]);
    }

    #[test]
    fn structural_failures_are_errors_with_a_line() {
        let unclosed = parse(&lex("fn ok() {}\n\nfn open() {\n  x();\n"));
        assert_eq!(unclosed.error, Some((3, "unclosed `{`".to_string())));
        assert!(unclosed.items.is_empty());
        let stray = parse(&lex("fn f() {}\n}\n"));
        assert_eq!(stray.error, Some((2, "unmatched `}`".to_string())));
    }

    #[test]
    fn cfg_test_spans_run_to_the_items_end() {
        let f = file(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\n#[cfg(test)] use a::b;\n",
        );
        assert_eq!(f.test_spans, vec![(2, 5), (6, 6)]);
    }

    #[test]
    fn the_visitor_reaches_guards_and_let_else_blocks() {
        let f = file(
            "fn f() { match x { Some(v) if guard(v) => {} _ => {} } \
             let Some(y) = y else { diverge(); return }; }",
        );
        let (_, d) = f.fns().next().expect("a fn");
        let mut calls = Vec::new();
        visit_block(d.body.as_ref().expect("a body"), &mut |n| {
            if let Node::Expr(Expr::Call { callee, .. }) = n {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    calls.push(segs.join("::"));
                }
            }
            true
        });
        assert_eq!(calls, vec!["guard", "diverge"]);
    }
}
