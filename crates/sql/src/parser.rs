//! Recursive-descent SQL parser producing logical query trees.
//!
//! The parser accepts the dialect emitted by [`crate::gen::to_sql`] (every
//! column aliased `c<id>`, operators as nested derived tables) as well as
//! ordinary catalog-resolved SQL over base tables (`SELECT r_name FROM
//! region WHERE r_regionkey = 1`). Column aliases of the form `c<N>` pin
//! the column id to `N`, which is what makes tree -> SQL -> tree round
//! trips structurally exact.
//!
//! Dialect restrictions: `EXISTS` / `NOT EXISTS` only as top-level `WHERE`
//! conjuncts (they become semi/anti joins); aggregate calls only over bare
//! columns; `GROUP BY` only over bare columns.

use crate::token::{tokenize, Token};
use ruletest_common::{ColId, Error, Result, Value};
use ruletest_expr::{AggCall, AggFunc, BinOp, Expr};
use ruletest_logical::{IdGen, JoinKind, LogicalTree, SortKey};
use ruletest_storage::Catalog;

/// One visible column during name resolution.
#[derive(Debug, Clone)]
struct ScopeCol {
    qualifier: Option<String>,
    name: String,
    id: ColId,
}

type Scope = Vec<ScopeCol>;

/// Parses a SQL statement into a logical query tree.
pub fn parse_sql(catalog: &Catalog, sql: &str) -> Result<LogicalTree> {
    let tokens = tokenize(sql)?;
    // Pin the fresh-id allocator above every explicit c<N> alias so minted
    // ids never collide with pinned ones.
    let mut max_id = 0u32;
    for t in &tokens {
        if let Token::Ident(s) = t {
            if let Some(n) = parse_col_alias(s) {
                max_id = max_id.max(n.0 + 1);
            }
        }
    }
    let mut p = Parser {
        catalog,
        tokens,
        pos: 0,
        ids: {
            let mut g = IdGen::new();
            while g.peek_next() < max_id {
                g.fresh();
            }
            g
        },
    };
    let (tree, _) = p.parse_query(&Scope::new())?;
    p.expect_eof()?;
    Ok(tree)
}

/// `c<digits>` aliases pin the column id.
fn parse_col_alias(s: &str) -> Option<ColId> {
    let rest = s.strip_prefix('c')?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse::<u32>().ok().map(ColId)
}

/// Unresolved scalar expression.
#[derive(Debug, Clone)]
enum Ast {
    Ident(Option<String>, String),
    Lit(Value),
    Bin(BinOp, Box<Ast>, Box<Ast>),
    Not(Box<Ast>),
    IsNull(Box<Ast>, bool),
}

/// A parsed select item.
#[derive(Debug, Clone)]
enum Item {
    Expr(Ast, Option<String>),
    Agg(AggFunc, Option<Ast>, Option<String>),
}

struct Parser<'a> {
    catalog: &'a Catalog,
    tokens: Vec<Token>,
    pos: usize,
    ids: IdGen,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if self.peek().is_symbol(sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected '{sym}', found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(Error::parse(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(Error::parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// Query := Select (UNION [ALL] Select)*
    fn parse_query(&mut self, outer: &Scope) -> Result<(LogicalTree, Vec<(String, ColId)>)> {
        let (mut tree, mut outputs) = self.parse_select(outer)?;
        while self.peek().is_kw("UNION") {
            self.bump();
            let distinct = !self.eat_kw("ALL");
            let (right, right_outputs) = self.parse_select(outer)?;
            if right_outputs.len() != outputs.len() {
                return Err(Error::parse("UNION arity mismatch"));
            }
            // A union side that is a pure column-rename projection is folded
            // into the union's id-based column maps instead of keeping the
            // synthetic Project — this is what makes generated
            // `SELECT cl AS co FROM ... UNION ALL ...` round-trip exactly.
            let (ltree, lsrc) = unwrap_pure_rename(tree);
            let (rtree, rsrc) = unwrap_pure_rename(right);
            // When a side keeps its projection, its visible ids are the
            // projection outputs themselves.
            let lcols_in: Vec<ColId> =
                lsrc.unwrap_or_else(|| outputs.iter().map(|(_, id)| *id).collect());
            let rcols_in: Vec<ColId> =
                rsrc.unwrap_or_else(|| right_outputs.iter().map(|(_, id)| *id).collect());
            // Union output ids: when both sides alias each position to the
            // same pinned `c<N>` name, keep it (round-trip exactness);
            // otherwise mint fresh ids.
            let mut out_ids = Vec::new();
            let mut left_cols = Vec::new();
            let mut right_cols = Vec::new();
            let mut names = Vec::new();
            for (i, ((lname, _), (rname, _))) in outputs.iter().zip(&right_outputs).enumerate() {
                let pinned = match (parse_col_alias(lname), parse_col_alias(rname)) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    _ => None,
                };
                let out = pinned.unwrap_or_else(|| self.ids.fresh());
                out_ids.push(out);
                left_cols.push(lcols_in[i]);
                right_cols.push(rcols_in[i]);
                names.push((lname.clone(), out));
            }
            tree = LogicalTree::union_all(ltree, rtree, out_ids, left_cols, right_cols);
            if distinct {
                tree = LogicalTree::distinct(tree);
            }
            outputs = names;
        }
        Ok((tree, outputs))
    }

    /// Select := SELECT [DISTINCT] items FROM From [WHERE ...]
    ///           [GROUP BY ...] [ORDER BY ...] [LIMIT n]
    fn parse_select(&mut self, outer: &Scope) -> Result<(LogicalTree, Vec<(String, ColId)>)> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let items = self.parse_items()?;
        self.expect_kw("FROM")?;
        let (mut tree, scope, mut from_is_base) = self.parse_from_full(outer)?;

        // WHERE: plain conjuncts become a Select; EXISTS conjuncts become
        // semi/anti joins.
        if self.eat_kw("WHERE") {
            let (preds, exists) = self.parse_where(&scope, outer)?;
            for (negated, sub, on) in exists {
                let kind = if negated {
                    JoinKind::LeftAnti
                } else {
                    JoinKind::LeftSemi
                };
                tree = LogicalTree::join(kind, tree, sub, on);
            }
            if !preds.is_empty() {
                tree = LogicalTree::select(tree, ruletest_expr::conjoin(preds));
            }
            from_is_base = false;
        }

        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            let mut cols = Vec::new();
            loop {
                let ast = self.parse_expr()?;
                match self.resolve(&ast, &scope, outer)? {
                    Expr::Col(c) => cols.push(c),
                    other => {
                        return Err(Error::parse(format!(
                            "GROUP BY supports bare columns only, got {other}"
                        )))
                    }
                }
                if !self.eat_symbol(",") {
                    break;
                }
            }
            Some(cols)
        } else {
            None
        };

        let has_agg = items.iter().any(|i| matches!(i, Item::Agg(..)));
        let (mut tree, mut outputs) = if group_by.is_some() || has_agg {
            self.build_aggregate(tree, &scope, outer, &items, group_by.unwrap_or_default())?
        } else {
            self.build_projection(tree, &scope, outer, &items, from_is_base)?
        };

        if distinct {
            tree = LogicalTree::distinct(tree);
        }

        // ORDER BY / LIMIT over the projected outputs.
        let post_scope: Scope = outputs
            .iter()
            .map(|(name, id)| ScopeCol {
                qualifier: None,
                name: name.clone(),
                id: *id,
            })
            .collect();
        let mut keys = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let ast = self.parse_expr()?;
                let col = match self.resolve(&ast, &post_scope, outer)? {
                    Expr::Col(c) => c,
                    other => {
                        return Err(Error::parse(format!(
                            "ORDER BY supports bare columns only, got {other}"
                        )))
                    }
                };
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                keys.push(SortKey {
                    col,
                    descending: desc,
                });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            let n = match self.bump() {
                Token::Number(n) if n >= 0 => n as u64,
                other => return Err(Error::parse(format!("bad LIMIT operand {other:?}"))),
            };
            tree = LogicalTree::top(tree, n, keys);
        } else if !keys.is_empty() {
            tree = LogicalTree::sort(tree, keys);
        }
        let _ = &mut outputs;
        Ok((tree, outputs))
    }

    fn parse_items(&mut self) -> Result<Vec<Item>> {
        if self.eat_symbol("*") {
            return Ok(vec![]); // empty = star
        }
        let mut items = Vec::new();
        loop {
            let item = if let Some(func) = self.peek_agg_func() {
                self.bump();
                self.expect_symbol("(")?;
                let (func, arg) = if func == AggFunc::Count && self.eat_symbol("*") {
                    (AggFunc::CountStar, None)
                } else {
                    (func, Some(self.parse_expr()?))
                };
                self.expect_symbol(")")?;
                let alias = self.parse_alias()?;
                Item::Agg(func, arg, alias)
            } else {
                let ast = self.parse_expr()?;
                let alias = self.parse_alias()?;
                Item::Expr(ast, alias)
            };
            items.push(item);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(items)
    }

    fn peek_agg_func(&self) -> Option<AggFunc> {
        let Token::Ident(s) = self.peek() else {
            return None;
        };
        if !self.peek2().is_symbol("(") {
            return None;
        }
        match s.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    fn parse_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            Ok(Some(self.expect_ident()?))
        } else {
            Ok(None)
        }
    }

    /// From := Primary (JoinClause)*
    fn parse_from(&mut self, outer: &Scope) -> Result<(LogicalTree, Scope)> {
        let (tree, scope, _) = self.parse_from_full(outer)?;
        Ok((tree, scope))
    }

    /// Like [`parse_from`], also reporting whether the clause was a single
    /// bare base table (which enables the Get rename-collapse).
    fn parse_from_full(&mut self, outer: &Scope) -> Result<(LogicalTree, Scope, bool)> {
        let table_start = matches!(self.peek(), Token::Ident(_));
        let (mut tree, mut scope) = self.parse_from_primary(outer)?;
        let mut single = table_start;
        loop {
            let kind = if self.peek().is_kw("JOIN") || self.peek().is_kw("INNER") {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.peek().is_kw("LEFT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::LeftOuter
            } else if self.peek().is_kw("RIGHT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::RightOuter
            } else if self.peek().is_kw("FULL") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::FullOuter
            } else if self.peek().is_kw("CROSS") {
                self.bump();
                self.expect_kw("JOIN")?;
                single = false;
                let (right, right_scope) = self.parse_from_primary(outer)?;
                tree = LogicalTree::join(JoinKind::Inner, tree, right, Expr::true_lit());
                scope.extend(right_scope);
                continue;
            } else {
                break;
            };
            single = false;
            let (right, right_scope) = self.parse_from_primary(outer)?;
            let mut combined = scope.clone();
            combined.extend(right_scope.iter().cloned());
            self.expect_kw("ON")?;
            let ast = self.parse_expr()?;
            let on = self.resolve(&ast, &combined, outer)?;
            tree = LogicalTree::join(kind, tree, right, on);
            scope = combined;
        }
        Ok((tree, scope, single))
    }

    fn parse_from_primary(&mut self, outer: &Scope) -> Result<(LogicalTree, Scope)> {
        if self.eat_symbol("(") {
            let (tree, outputs) = self.parse_query(outer)?;
            self.expect_symbol(")")?;
            // Derived-table alias (optional AS).
            self.eat_kw("AS");
            let alias = self.expect_ident()?;
            let scope = outputs
                .into_iter()
                .map(|(name, id)| ScopeCol {
                    qualifier: Some(alias.clone()),
                    name,
                    id,
                })
                .collect();
            Ok((tree, scope))
        } else {
            let name = self.expect_ident()?;
            let def = self.catalog.table_by_name(&name)?;
            let tree = LogicalTree::get(def, &mut self.ids);
            let cols = match &tree.op {
                ruletest_logical::Operator::Get { cols, .. } => cols.clone(),
                _ => return Err(Error::internal("table scan did not produce a Get")),
            };
            // Optional alias (bare identifier that is not a clause keyword).
            let alias = match self.peek() {
                Token::Ident(s) if !is_clause_keyword(s) && !self.peek().is_symbol("(") => {
                    Some(self.expect_ident()?)
                }
                _ => None,
            };
            let qualifier = alias.unwrap_or_else(|| name.clone());
            let scope = def
                .columns
                .iter()
                .zip(cols)
                .map(|(cd, id)| ScopeCol {
                    qualifier: Some(qualifier.clone()),
                    name: cd.name.clone(),
                    id,
                })
                .collect();
            Ok((tree, scope))
        }
    }

    /// WHERE clause: top-level conjuncts, with EXISTS/NOT EXISTS peeled off
    /// into semi/anti joins.
    #[allow(clippy::type_complexity)]
    fn parse_where(
        &mut self,
        scope: &Scope,
        outer: &Scope,
    ) -> Result<(Vec<Expr>, Vec<(bool, LogicalTree, Expr)>)> {
        let mut preds = Vec::new();
        let mut exists = Vec::new();
        // When the clause contains no EXISTS, parse it as one expression
        // with full operator precedence (top-level OR included).
        if !self.clause_contains_exists() {
            let ast = self.parse_expr()?;
            preds.push(self.resolve(&ast, scope, outer)?);
            return Ok((preds, exists));
        }
        loop {
            let negated = if self.peek().is_kw("NOT") && self.peek2().is_kw("EXISTS") {
                self.bump();
                true
            } else {
                false
            };
            if self.peek().is_kw("EXISTS") {
                self.bump();
                self.expect_symbol("(")?;
                // EXISTS (SELECT 1 FROM <sub> WHERE <pred>)
                self.expect_kw("SELECT")?;
                // The select list of an EXISTS subquery is irrelevant.
                if !self.eat_symbol("*") {
                    let _ = self.parse_expr()?;
                }
                self.expect_kw("FROM")?;
                let mut inner_outer = scope.clone();
                inner_outer.extend(outer.iter().cloned());
                let (sub, sub_scope) = self.parse_from(&inner_outer)?;
                let on = if self.eat_kw("WHERE") {
                    let mut combined = scope.clone();
                    combined.extend(sub_scope.iter().cloned());
                    let ast = self.parse_expr()?;
                    self.resolve(&ast, &combined, outer)?
                } else {
                    Expr::true_lit()
                };
                self.expect_symbol(")")?;
                exists.push((negated, sub, on));
            } else if negated {
                return Err(Error::parse("NOT EXISTS expected after NOT"));
            } else {
                let ast = self.parse_expr_no_and()?;
                preds.push(self.resolve(&ast, scope, outer)?);
            }
            if !self.eat_kw("AND") {
                break;
            }
        }
        if self.peek().is_kw("OR") {
            return Err(Error::unsupported(
                "top-level OR cannot be combined with EXISTS in this dialect",
            ));
        }
        Ok((preds, exists))
    }

    /// Lookahead: does the current WHERE clause (up to the next top-level
    /// clause keyword) contain an EXISTS?
    fn clause_contains_exists(&self) -> bool {
        let mut depth = 0i32;
        for t in &self.tokens[self.pos..] {
            match t {
                Token::Symbol("(") => depth += 1,
                Token::Symbol(")") => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                Token::Eof => return false,
                Token::Ident(s) if depth == 0 => {
                    if s.eq_ignore_ascii_case("EXISTS") {
                        return true;
                    }
                    if ["GROUP", "ORDER", "LIMIT", "UNION"]
                        .iter()
                        .any(|k| s.eq_ignore_ascii_case(k))
                    {
                        return false;
                    }
                }
                _ => {}
            }
        }
        false
    }

    fn build_projection(
        &mut self,
        tree: LogicalTree,
        scope: &Scope,
        outer: &Scope,
        items: &[Item],
        from_is_base: bool,
    ) -> Result<(LogicalTree, Vec<(String, ColId)>)> {
        if items.is_empty() {
            // SELECT *: pass the input through.
            let outputs = scope.iter().map(|c| (c.name.clone(), c.id)).collect();
            return Ok((tree, outputs));
        }
        let mut outputs = Vec::with_capacity(items.len());
        let mut proj = Vec::with_capacity(items.len());
        for item in items {
            let Item::Expr(ast, alias) = item else {
                return Err(Error::parse("aggregate outside GROUP BY context"));
            };
            let e = self.resolve(ast, scope, outer)?;
            let id = self.output_id(alias);
            let name = alias.clone().unwrap_or_else(|| display_name(ast, id));
            outputs.push((name, id));
            proj.push((id, e));
        }
        // Identity-collapse: a projection that renames a base Get's columns
        // one-to-one in order rebinds the Get instead of wrapping it (this
        // is what makes Get round-trip without synthetic Projects). Only
        // done when the FROM clause names the table directly — a derived
        // table that happens to BE a Get already carries pinned ids.
        if !from_is_base {
            return Ok((LogicalTree::project(tree, proj), outputs));
        }
        if let ruletest_logical::Operator::Get { table, cols } = &tree.op {
            let is_rename = proj.len() == cols.len()
                && proj
                    .iter()
                    .zip(cols)
                    .all(|((_, e), c)| matches!(e, Expr::Col(x) if x == c));
            if is_rename {
                let new_cols: Vec<ColId> = proj.iter().map(|(id, _)| *id).collect();
                return Ok((LogicalTree::get_with_cols(*table, new_cols), outputs));
            }
        }
        Ok((LogicalTree::project(tree, proj), outputs))
    }

    #[allow(clippy::type_complexity)]
    fn build_aggregate(
        &mut self,
        tree: LogicalTree,
        scope: &Scope,
        outer: &Scope,
        items: &[Item],
        group_by: Vec<ColId>,
    ) -> Result<(LogicalTree, Vec<(String, ColId)>)> {
        let mut outputs = Vec::new();
        let mut aggs = Vec::new();
        let mut group_out = Vec::new();
        for item in items {
            match item {
                Item::Expr(ast, alias) => {
                    let e = self.resolve(ast, scope, outer)?;
                    let Expr::Col(c) = e else {
                        return Err(Error::parse(
                            "non-aggregate select item must be a grouping column",
                        ));
                    };
                    if !group_by.contains(&c) {
                        return Err(Error::parse(format!("column {c} is not in GROUP BY")));
                    }
                    group_out.push(c);
                    let name = alias.clone().unwrap_or_else(|| display_name(ast, c));
                    outputs.push((name, c));
                }
                Item::Agg(func, arg, alias) => {
                    let arg_col = match arg {
                        None => None,
                        Some(ast) => match self.resolve(ast, scope, outer)? {
                            Expr::Col(c) => Some(c),
                            other => {
                                return Err(Error::parse(format!(
                                    "aggregate arguments must be bare columns, got {other}"
                                )))
                            }
                        },
                    };
                    let out = self.output_id(alias);
                    let name = alias.clone().unwrap_or_else(|| format!("c{}", out.0));
                    aggs.push(AggCall::new(*func, arg_col, out));
                    outputs.push((name, out));
                }
            }
        }
        let _ = group_out;
        Ok((LogicalTree::gbagg(tree, group_by, aggs), outputs))
    }

    fn output_id(&mut self, alias: &Option<String>) -> ColId {
        alias
            .as_deref()
            .and_then(parse_col_alias)
            .unwrap_or_else(|| self.ids.fresh())
    }

    // ---- Expression grammar ----
    // expr := and_expr (OR and_expr)*
    // and_expr := not_expr (AND not_expr)*
    // not_expr := [NOT] cmp
    // cmp := add ((= | <> | < | <= | > | >=) add)? (IS [NOT] NULL)?
    // add := mul ((+|-) mul)*
    // mul := primary (* primary)*
    // primary := literal | ident[.ident] | ( expr )

    fn parse_expr(&mut self) -> Result<Ast> {
        let mut e = self.parse_expr_no_and()?;
        // OR binds looser than AND; parse_expr_no_and already handles AND.
        while self.peek().is_kw("OR") {
            self.bump();
            let rhs = self.parse_expr_no_and()?;
            e = Ast::Bin(BinOp::Or, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    /// AND-level expression (no top-level OR is produced above this point;
    /// OR inside parentheses is fine).
    fn parse_expr_no_and(&mut self) -> Result<Ast> {
        let mut e = self.parse_not()?;
        while self.peek().is_kw("AND") && !self.peek2().is_kw("EXISTS") {
            // Leave `AND [NOT] EXISTS` to the WHERE-level splitter.
            let save = self.pos;
            self.bump();
            if self.peek().is_kw("NOT") && self.peek2().is_kw("EXISTS") {
                self.pos = save;
                break;
            }
            let rhs = self.parse_not()?;
            e = Ast::Bin(BinOp::And, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> Result<Ast> {
        if self.peek().is_kw("NOT") && !self.peek2().is_kw("EXISTS") {
            self.bump();
            Ok(Ast::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Ast> {
        let mut e = self.parse_add()?;
        for (sym, op) in [
            ("=", BinOp::Eq),
            ("<>", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.peek().is_symbol(sym) {
                self.bump();
                let rhs = self.parse_add()?;
                e = Ast::Bin(op, Box::new(e), Box::new(rhs));
                break;
            }
        }
        if self.peek().is_kw("IS") {
            self.bump();
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            e = Ast::IsNull(Box::new(e), negated);
        }
        Ok(e)
    }

    fn parse_add(&mut self) -> Result<Ast> {
        let mut e = self.parse_mul()?;
        loop {
            let op = if self.peek().is_symbol("+") {
                BinOp::Add
            } else if self.peek().is_symbol("-") {
                BinOp::Sub
            } else {
                break;
            };
            self.bump();
            let rhs = self.parse_mul()?;
            e = Ast::Bin(op, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn parse_mul(&mut self) -> Result<Ast> {
        let mut e = self.parse_primary()?;
        while self.peek().is_symbol("*") {
            self.bump();
            let rhs = self.parse_primary()?;
            e = Ast::Bin(BinOp::Mul, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Ast> {
        match self.bump() {
            Token::Number(n) => Ok(Ast::Lit(Value::Int(n))),
            Token::Str(s) => Ok(Ast::Lit(Value::Str(s.into()))),
            Token::Symbol("-") => match self.bump() {
                Token::Number(n) => Ok(Ast::Lit(Value::Int(-n))),
                other => Err(Error::parse(format!("bad negative literal {other:?}"))),
            },
            Token::Symbol("(") => {
                let e = self.parse_expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Token::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Ast::Lit(Value::Null)),
            Token::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Ok(Ast::Lit(Value::Bool(true))),
            Token::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Ok(Ast::Lit(Value::Bool(false))),
            Token::Ident(q) if self.peek().is_symbol(".") => {
                self.bump();
                let name = self.expect_ident()?;
                Ok(Ast::Ident(Some(q), name))
            }
            Token::Ident(name) => Ok(Ast::Ident(None, name)),
            other => Err(Error::parse(format!("unexpected token {other:?}"))),
        }
    }

    // ---- Name resolution ----

    fn resolve(&self, ast: &Ast, scope: &Scope, outer: &Scope) -> Result<Expr> {
        match ast {
            Ast::Lit(v) => Ok(Expr::Lit(v.clone())),
            Ast::Bin(op, l, r) => Ok(Expr::bin(
                *op,
                self.resolve(l, scope, outer)?,
                self.resolve(r, scope, outer)?,
            )),
            Ast::Not(e) => Ok(Expr::not(self.resolve(e, scope, outer)?)),
            Ast::IsNull(e, negated) => {
                let inner = Expr::is_null(self.resolve(e, scope, outer)?);
                Ok(if *negated { Expr::not(inner) } else { inner })
            }
            Ast::Ident(qualifier, name) => self
                .resolve_ident(qualifier.as_deref(), name, scope)
                .or_else(|_| self.resolve_ident(qualifier.as_deref(), name, outer)),
        }
    }

    fn resolve_ident(&self, qualifier: Option<&str>, name: &str, scope: &Scope) -> Result<Expr> {
        let matches: Vec<&ScopeCol> = scope
            .iter()
            .filter(|c| {
                c.name.eq_ignore_ascii_case(name)
                    && qualifier.is_none_or(|q| {
                        c.qualifier
                            .as_deref()
                            .is_some_and(|cq| cq.eq_ignore_ascii_case(q))
                    })
            })
            .collect();
        match matches.len() {
            1 => Ok(Expr::col(matches[0].id)),
            0 => {
                // `c<N>` references resolve positionally by pinned id even
                // when the producing select aliased it in an inner scope.
                if qualifier.is_none() {
                    if let Some(id) = parse_col_alias(name) {
                        if scope.iter().any(|c| c.id == id) {
                            return Ok(Expr::col(id));
                        }
                    }
                }
                Err(Error::parse(format!("unknown column '{name}'")))
            }
            _ => Err(Error::parse(format!("ambiguous column '{name}'"))),
        }
    }
}

/// If `tree` is a projection whose every output is a bare column reference,
/// returns its child plus the referenced source ids (in output order);
/// otherwise returns the tree unchanged.
fn unwrap_pure_rename(tree: LogicalTree) -> (LogicalTree, Option<Vec<ColId>>) {
    let srcs: Option<Vec<ColId>> = match &tree.op {
        ruletest_logical::Operator::Project { outputs } => outputs
            .iter()
            .map(|(_, e)| match e {
                Expr::Col(c) => Some(*c),
                _ => None,
            })
            .collect(),
        _ => None,
    };
    match srcs {
        // A childless Project is malformed; leave it for schema
        // validation to reject instead of panicking here.
        Some(srcs) if !tree.children.is_empty() => {
            let mut children = tree.children;
            (children.remove(0), Some(srcs))
        }
        _ => (tree, None),
    }
}

fn display_name(ast: &Ast, id: ColId) -> String {
    match ast {
        Ast::Ident(_, name) => name.clone(),
        _ => format!("c{}", id.0),
    }
}

fn is_clause_keyword(s: &str) -> bool {
    const KW: &[&str] = &[
        "WHERE", "GROUP", "ORDER", "LIMIT", "UNION", "JOIN", "INNER", "LEFT", "RIGHT", "FULL",
        "CROSS", "ON", "AND", "OR", "AS", "EXISTS", "NOT", "SELECT", "FROM", "BY",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_logical::{derive_schema, Operator};
    use ruletest_storage::tpch_catalog;

    fn parse(sql: &str) -> LogicalTree {
        let cat = tpch_catalog();
        let tree = parse_sql(&cat, sql).unwrap();
        derive_schema(&cat, &tree).expect("parsed tree must validate");
        tree
    }

    #[test]
    fn simple_catalog_select() {
        let t = parse("SELECT r_name FROM region WHERE r_regionkey = 1");
        assert!(matches!(t.op, Operator::Project { .. }));
        assert!(matches!(t.children[0].op, Operator::Select { .. }));
    }

    #[test]
    fn star_select_is_passthrough() {
        let t = parse("SELECT * FROM region WHERE r_regionkey = 1");
        assert!(matches!(t.op, Operator::Select { .. }));
        assert!(matches!(t.children[0].op, Operator::Get { .. }));
    }

    #[test]
    fn joins_with_aliases() {
        let t =
            parse("SELECT n.n_name FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey");
        assert!(matches!(t.op, Operator::Project { .. }));
        let join = &t.children[0];
        assert_eq!(join.op.join_kind(), Some(JoinKind::Inner));
    }

    #[test]
    fn outer_join_kinds() {
        for (sql, kind) in [
            ("LEFT JOIN", JoinKind::LeftOuter),
            ("LEFT OUTER JOIN", JoinKind::LeftOuter),
            ("RIGHT JOIN", JoinKind::RightOuter),
            ("FULL OUTER JOIN", JoinKind::FullOuter),
        ] {
            let t = parse(&format!(
                "SELECT * FROM nation n {sql} region r ON n.n_regionkey = r.r_regionkey"
            ));
            assert_eq!(t.op.join_kind(), Some(kind), "{sql}");
        }
    }

    #[test]
    fn cross_join() {
        let t = parse("SELECT * FROM nation CROSS JOIN region");
        assert_eq!(t.op.join_kind(), Some(JoinKind::Inner));
        if let Operator::Join { predicate, .. } = &t.op {
            assert!(predicate.is_true_lit());
        }
    }

    #[test]
    fn exists_becomes_semi_join() {
        let t = parse(
            "SELECT * FROM nation n WHERE EXISTS (SELECT 1 FROM region r \
             WHERE r.r_regionkey = n.n_regionkey)",
        );
        assert_eq!(t.op.join_kind(), Some(JoinKind::LeftSemi));
    }

    #[test]
    fn not_exists_becomes_anti_join_with_residual_where() {
        let t = parse(
            "SELECT * FROM nation n WHERE n_nationkey > 2 AND NOT EXISTS \
             (SELECT 1 FROM region r WHERE r.r_regionkey = n.n_regionkey)",
        );
        // WHERE predicate applies above the anti join.
        assert!(matches!(t.op, Operator::Select { .. }));
        assert_eq!(t.children[0].op.join_kind(), Some(JoinKind::LeftAnti));
    }

    #[test]
    fn group_by_with_aggregates() {
        let t = parse(
            "SELECT s_nationkey, COUNT(*) AS cnt, MAX(s_acctbal) AS mx \
             FROM supplier GROUP BY s_nationkey",
        );
        let Operator::GbAgg { group_by, aggs } = &t.op else {
            panic!("expected GbAgg, got {}", t.op.label());
        };
        assert_eq!(group_by.len(), 1);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].func, AggFunc::CountStar);
        assert_eq!(aggs[1].func, AggFunc::Max);
    }

    #[test]
    fn scalar_aggregate() {
        let t = parse("SELECT COUNT(*) AS n FROM lineitem");
        let Operator::GbAgg { group_by, aggs } = &t.op else {
            panic!();
        };
        assert!(group_by.is_empty());
        assert_eq!(aggs.len(), 1);
    }

    #[test]
    fn union_all_and_union_distinct() {
        let t = parse("SELECT r_name FROM region UNION ALL SELECT n_name FROM nation");
        assert!(matches!(t.op, Operator::UnionAll { .. }));
        let t = parse("SELECT r_name FROM region UNION SELECT n_name FROM nation");
        assert!(matches!(t.op, Operator::Distinct));
        assert!(matches!(t.children[0].op, Operator::UnionAll { .. }));
    }

    #[test]
    fn order_by_and_limit() {
        let t = parse("SELECT * FROM region ORDER BY r_name DESC");
        assert!(matches!(t.op, Operator::Sort { .. }));
        let t = parse("SELECT * FROM region ORDER BY r_name LIMIT 2");
        let Operator::Top { n, keys } = &t.op else {
            panic!();
        };
        assert_eq!(*n, 2);
        assert_eq!(keys.len(), 1);
        let t = parse("SELECT * FROM region LIMIT 3");
        assert!(matches!(t.op, Operator::Top { .. }));
    }

    #[test]
    fn pinned_column_aliases_round_trip_get() {
        let t = parse("SELECT r_regionkey AS c7, r_name AS c9 FROM region");
        let Operator::Get { cols, .. } = &t.op else {
            panic!("identity rename must collapse into the Get");
        };
        assert_eq!(cols, &vec![ColId(7), ColId(9)]);
    }

    #[test]
    fn derived_tables_nest() {
        let t = parse(
            "SELECT * FROM (SELECT r_regionkey AS c0, r_name AS c1 FROM region) t0 \
             WHERE (c0 = 1)",
        );
        assert!(matches!(t.op, Operator::Select { .. }));
        assert!(matches!(t.children[0].op, Operator::Get { .. }));
    }

    #[test]
    fn parse_errors_are_reported() {
        let cat = tpch_catalog();
        assert!(parse_sql(&cat, "SELECT FROM region").is_err());
        assert!(parse_sql(&cat, "SELECT * FROM nosuchtable").is_err());
        assert!(parse_sql(&cat, "SELECT r_name FROM region WHERE").is_err());
        assert!(parse_sql(&cat, "SELECT nope FROM region").is_err());
        assert!(parse_sql(&cat, "SELECT * FROM region extra garbage ,").is_err());
    }

    #[test]
    fn ambiguous_column_errors() {
        let cat = tpch_catalog();
        let err = parse_sql(
            &cat,
            "SELECT n_name FROM nation a JOIN nation b ON a.n_nationkey = b.n_nationkey",
        );
        assert!(err.is_err());
    }

    #[test]
    fn arithmetic_and_precedence() {
        let t = parse("SELECT p_size + 2 * 3 AS x FROM part WHERE p_size * 2 > 10 - 1");
        assert!(matches!(t.op, Operator::Project { .. }));
        let Operator::Project { outputs } = &t.op else {
            panic!();
        };
        // + binds looser than *
        assert!(outputs[0].1.to_string().contains("(2 * 3)"));
    }

    #[test]
    fn or_and_not_and_is_null() {
        let t = parse(
            "SELECT * FROM supplier WHERE s_acctbal IS NULL AND s_suppkey > 1 \
             OR s_acctbal IS NOT NULL",
        );
        assert!(matches!(t.op, Operator::Select { .. }));
    }
}
