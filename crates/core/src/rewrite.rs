//! Config-driven query rewriting — the adaptable stage *before* the
//! Volcano optimizer ever runs.
//!
//! The paper's middleware adapts after optimization (cost-model
//! calibration, mid-query re-planning); this module adds the missing
//! front door: declarative pattern → replacement rules, loaded from
//! checked-in JSON rule packs (`rules/*.json`), applied to the logical
//! algebra tree between the tsql parser and the optimizer. Rules fix
//! queries the optimizer cannot — predicate spellings its estimator does
//! not recognize, cartesian products hiding equi-joins, a second SQL
//! surface that never mentions `VALIDTIME`.
//!
//! A pack mixes two rule kinds (see `docs/REWRITES.md` for the full
//! format reference):
//!
//! * **`expr` rules** — declarative expression patterns with binding
//!   variables (`"?a"` any expression, `"?c:col"` a column, `"?l:lit"` a
//!   literal, `"?op"` a comparison operator) and a replacement template
//!   that may transform bound operators (`["negate", "?op"]`,
//!   `["flip", "?op"]`). Matched bottom-up against every predicate and
//!   projection expression.
//! * **`pass` rules** — named plan-level transformations implemented in
//!   Rust and *selected and ordered* from the pack file:
//!   [`PlanPass::ProductToJoin`], [`PlanPass::MergeSelects`],
//!   [`PlanPass::SqlOverlapToTJoin`].
//!
//! Packs are applied to **fixpoint with a pass budget**: whole-tree
//! sweeps repeat until nothing changes or the budget is hit (looping
//! rule sets terminate and surface a `rewrite_budget_hit` counter
//! instead of hanging). Every firing is recorded and reported as
//! `rewrite` span events/counters in `EXPLAIN ANALYZE`, the optimizer
//! trace, and JSON traces.
//!
//! Enable packs per session via
//! [`TangoOptions::rewrite_packs`](crate::TangoOptions::rewrite_packs)
//! or `\rewrites` in the REPL.

use crate::error::{Result, TangoError};
use std::path::{Path, PathBuf};
use tango_algebra::logical::{concat_schemas, tjoin_schema};
use tango_algebra::{CmpOp, Expr, Logical, ProjItem, Schema, TOp};
use tango_trace::json::{self, Json};

/// Resolves a base relation's schema (what [`Logical::output_schema`]
/// takes).
type Tables<'a> = &'a dyn Fn(&str) -> Option<Schema>;

/// Default whole-tree sweep budget of [`Rewriter::apply`]; a pack file
/// may lower it with a `"budget"` key.
pub(crate) const DEFAULT_PASS_BUDGET: usize = 32;

/// One loaded rule pack: a named, ordered list of rules.
#[derive(Debug, Clone)]
pub struct RulePack {
    /// Pack name (the `"pack"` key; also the file stem under `rules/`).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Sweep budget this pack is content with (a [`Rewriter`] running
    /// several packs uses the smallest).
    pub budget: usize,
    /// Rules, in application order.
    pub rules: Vec<Rule>,
}

/// One rule of a pack.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name (reported in traces as `pack/rule`).
    pub name: String,
    /// What the rule does.
    pub(crate) kind: RuleKind,
}

/// The two rule kinds a pack may mix.
#[derive(Debug, Clone)]
pub(crate) enum RuleKind {
    /// Declarative expression rewrite: pattern → replacement template.
    Expr {
        /// Pattern matched against expression nodes.
        pattern: Pat,
        /// Template instantiated from the pattern's bindings.
        replace: Template,
    },
    /// A named plan-level pass (Rust-implemented, config-selected).
    Pass(PlanPass),
}

/// Named plan-level passes (the osm2streets-style `Transformation`
/// enum: Rust implementations, selected and ordered from config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanPass {
    /// `σ_p(A × B)` → `σ_rest(A ⋈_eq B)`: extract cross-input `Col = Col`
    /// conjuncts of a selection over a cartesian product into an
    /// equi-join (the output schema of `×` and `⋈` is the same
    /// concatenation, so the rewrite is layout-preserving).
    ProductToJoin,
    /// `σ_p(σ_q(X))` → `σ_{q ∧ p}(X)` — collapse adjacent selections.
    MergeSelects,
    /// Recognize the plain-SQL spelling of a temporal join — the exact
    /// shape `Translator-To-SQL` emits for `TJOIN^D` (Figure 5 of the
    /// paper: `GREATEST`/`LEAST` intersection items over a strict
    /// overlap `A.T1 < B.T2 AND B.T1 < A.T2`) — and map it back onto
    /// the algebra's `TJoin`, opening the temporal operators and
    /// estimators to queries that never said `VALIDTIME`.
    SqlOverlapToTJoin,
}

impl PlanPass {
    /// The config-file name of this pass.
    pub fn config_name(self) -> &'static str {
        match self {
            PlanPass::ProductToJoin => "product-to-join",
            PlanPass::MergeSelects => "merge-selects",
            PlanPass::SqlOverlapToTJoin => "sql-overlap-to-tjoin",
        }
    }

    fn from_config_name(s: &str) -> Option<PlanPass> {
        match s {
            "product-to-join" => Some(PlanPass::ProductToJoin),
            "merge-selects" => Some(PlanPass::MergeSelects),
            "sql-overlap-to-tjoin" => Some(PlanPass::SqlOverlapToTJoin),
            _ => None,
        }
    }

    const ALL: [PlanPass; 3] =
        [PlanPass::ProductToJoin, PlanPass::MergeSelects, PlanPass::SqlOverlapToTJoin];
}

/// What a binding variable may match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BindKind {
    /// `"?x"` — any expression.
    Any,
    /// `"?x:col"` — a column reference.
    Col,
    /// `"?x:lit"` — a literal.
    Lit,
}

/// An expression pattern (the `"match"` side of an `expr` rule).
#[derive(Debug, Clone)]
pub(crate) enum Pat {
    /// A binding variable; a name repeated within one pattern must bind
    /// equal expressions.
    Bind(String, BindKind),
    /// `["cmp", op, l, r]` — a comparison with an exact or bound operator.
    Cmp(OpPat, Box<Pat>, Box<Pat>),
    /// `["and", l, r]`
    And(Box<Pat>, Box<Pat>),
    /// `["or", l, r]`
    Or(Box<Pat>, Box<Pat>),
    /// `["not", p]`
    Not(Box<Pat>),
}

/// Operator position of a [`Pat::Cmp`].
#[derive(Debug, Clone)]
pub(crate) enum OpPat {
    /// A literal operator, e.g. `"<="`.
    Exact(CmpOp),
    /// `"?op"` — bind whatever operator is there.
    Bind(String),
}

/// A replacement template (the `"replace"` side of an `expr` rule).
#[derive(Debug, Clone)]
pub(crate) enum Template {
    /// `"?x"` — substitute the bound expression.
    Var(String),
    /// `["cmp", op, l, r]`
    Cmp(OpTemplate, Box<Template>, Box<Template>),
    /// `["and", l, r]`
    And(Box<Template>, Box<Template>),
    /// `["or", l, r]`
    Or(Box<Template>, Box<Template>),
    /// `["not", t]`
    Not(Box<Template>),
}

/// Operator position of a [`Template::Cmp`].
#[derive(Debug, Clone)]
pub(crate) enum OpTemplate {
    /// A literal operator.
    Exact(CmpOp),
    /// `"?op"` — the bound operator, unchanged.
    Var(String),
    /// `["flip", "?op"]` — mirror the bound operator (`<` → `>`, `<=` →
    /// `>=`), for swapping comparison operands.
    Flip(String),
    /// `["negate", "?op"]` — the three-valued-logic negation (`<` → `>=`,
    /// `=` → `<>`): `NOT (a op b)` ≡ `a negate(op) b` because both sides
    /// are `UNKNOWN` exactly when a `NULL` is involved.
    Negate(String),
}

/// The 3VL-sound negation of a comparison operator: `NOT (a op b)` ≡
/// `a negate(op) b` (both are `UNKNOWN` on `NULL` operands).
pub(crate) fn negate_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
    }
}

/// One rule's aggregate firing count over a query.
#[derive(Debug, Clone)]
pub struct RuleFire {
    /// Pack name.
    pub pack: String,
    /// Rule name.
    pub rule: String,
    /// How many times it fired.
    pub fires: u64,
}

/// What [`Rewriter::apply`] did to one query.
#[derive(Debug, Clone, Default)]
pub struct RewriteOutcome {
    /// Per-rule firing counts (only rules that fired).
    pub fires: Vec<RuleFire>,
    /// Whole-tree sweeps taken.
    pub passes: usize,
    /// Whether the sweep budget stopped a still-changing rewrite (a
    /// looping rule set); surfaced as a `rewrite_budget_hit` counter.
    pub budget_hit: bool,
}

impl RewriteOutcome {
    /// Total rule firings.
    pub fn total_fires(&self) -> u64 {
        self.fires.iter().map(|f| f.fires).sum()
    }

    /// `true` when nothing fired and no budget was hit.
    pub fn is_empty(&self) -> bool {
        self.fires.is_empty() && !self.budget_hit
    }
}

/// A loaded, ordered set of rule packs, ready to rewrite plans.
#[derive(Debug, Clone)]
pub struct Rewriter {
    packs: Vec<RulePack>,
    budget: usize,
}

impl Rewriter {
    /// Load packs by name (resolved under `rules/`, see
    /// [`RulePack::load`]) or literal path, in the given order.
    pub fn load(names: &[String]) -> Result<Rewriter> {
        let mut packs = Vec::with_capacity(names.len());
        for n in names {
            packs.push(RulePack::load(n)?);
        }
        Ok(Rewriter::from_packs(packs))
    }

    /// Build a rewriter from already-parsed packs.
    pub(crate) fn from_packs(packs: Vec<RulePack>) -> Rewriter {
        let budget = packs.iter().map(|p| p.budget).min().unwrap_or(DEFAULT_PASS_BUDGET);
        Rewriter { packs, budget }
    }

    /// The loaded packs, in application order.
    pub fn packs(&self) -> &[RulePack] {
        &self.packs
    }

    /// Rewrite a logical plan to fixpoint (bounded by the pass budget).
    /// Returns the rewritten plan and the firing record; a plan no rule
    /// matches comes back unchanged with an empty outcome.
    pub fn apply(&self, mut plan: Logical, src: Tables<'_>) -> (Logical, RewriteOutcome) {
        let mut counts: Vec<Vec<u64>> =
            self.packs.iter().map(|p| vec![0u64; p.rules.len()]).collect();
        let mut passes = 0;
        let mut budget_hit = false;
        loop {
            let mut sweep = Sweep { packs: &self.packs, counts: &mut counts, changed: false, src };
            plan = sweep.plan(plan);
            let changed = sweep.changed;
            passes += 1;
            if !changed {
                break;
            }
            if passes >= self.budget {
                budget_hit = true;
                break;
            }
        }
        let mut fires = Vec::new();
        for (p, pack) in self.packs.iter().enumerate() {
            for (r, rule) in pack.rules.iter().enumerate() {
                if counts[p][r] > 0 {
                    fires.push(RuleFire {
                        pack: pack.name.clone(),
                        rule: rule.name.clone(),
                        fires: counts[p][r],
                    });
                }
            }
        }
        (plan, RewriteOutcome { fires, passes, budget_hit })
    }
}

// ---------------------------------------------------------------------------
// Pack loading: path resolution, JSON parsing, schema validation.
// ---------------------------------------------------------------------------

fn err(msg: impl Into<String>) -> TangoError {
    TangoError::Rewrite(msg.into())
}

impl RulePack {
    /// Load a pack by name or path. A bare name `x` resolves to
    /// `rules/x.json` relative to the current directory, then relative
    /// to the repository root (so tests and the REPL agree); anything
    /// containing a path separator or `.json` is used verbatim.
    pub fn load(name: &str) -> Result<RulePack> {
        let mut candidates: Vec<PathBuf> = Vec::new();
        if name.contains('/') || name.contains('\\') || name.ends_with(".json") {
            candidates.push(PathBuf::from(name));
        } else {
            let file = format!("{name}.json");
            candidates.push(Path::new("rules").join(&file));
            candidates.push(
                Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("..")
                    .join("..")
                    .join("rules")
                    .join(file),
            );
        }
        for c in &candidates {
            if c.is_file() {
                let text =
                    std::fs::read_to_string(c).map_err(|e| err(format!("{}: {e}", c.display())))?;
                return RulePack::parse(&text, &c.display().to_string());
            }
        }
        let tried: Vec<String> = candidates.iter().map(|c| c.display().to_string()).collect();
        Err(err(format!("rule pack '{name}' not found (tried: {})", tried.join(", "))))
    }

    /// Parse a pack from JSON text; `origin` labels errors (a path or
    /// `"<inline>"`). The schema is validated strictly — unknown keys,
    /// missing fields, unbound template variables and unknown pass names
    /// are all rejected with the offending name in the message.
    pub fn parse(text: &str, origin: &str) -> Result<RulePack> {
        let doc = json::parse(text).map_err(|e| err(format!("{origin}: {e}")))?;
        let obj = as_obj(&doc, origin, "rule pack")?;
        let mut name = None;
        let mut description = None;
        let mut budget = DEFAULT_PASS_BUDGET;
        let mut rules = None;
        for (k, v) in obj {
            match k.as_str() {
                "pack" => name = Some(as_str(v, origin, "pack")?.to_string()),
                "description" => description = Some(as_str(v, origin, "description")?.to_string()),
                "budget" => {
                    let n = as_num(v, origin, "budget")?;
                    if !(1.0..=10_000.0).contains(&n) || n.fract() != 0.0 {
                        return Err(err(format!(
                            "{origin}: \"budget\" must be an integer in 1..=10000, got {n}"
                        )));
                    }
                    budget = n as usize;
                }
                "rules" => rules = Some(v),
                other => {
                    return Err(err(format!(
                        "{origin}: unknown rule-pack key \"{other}\" \
                         (expected \"pack\", \"description\", \"budget\", \"rules\")"
                    )))
                }
            }
        }
        let name = name.ok_or_else(|| err(format!("{origin}: missing \"pack\" name")))?;
        let description =
            description.ok_or_else(|| err(format!("{origin}: missing \"description\"")))?;
        let rules_json = match rules {
            Some(Json::Arr(items)) if !items.is_empty() => items,
            Some(Json::Arr(_)) => {
                return Err(err(format!("{origin}: \"rules\" must not be empty")))
            }
            Some(_) => return Err(err(format!("{origin}: \"rules\" must be an array"))),
            None => return Err(err(format!("{origin}: missing \"rules\" array"))),
        };
        let mut parsed = Vec::with_capacity(rules_json.len());
        for (i, r) in rules_json.iter().enumerate() {
            parsed.push(parse_rule(r, origin, i)?);
        }
        Ok(RulePack { name, description, budget, rules: parsed })
    }
}

fn parse_rule(j: &Json, origin: &str, idx: usize) -> Result<Rule> {
    let obj = as_obj(j, origin, &format!("rules[{idx}]"))?;
    let mut name = None;
    let mut kind = None;
    let mut pattern = None;
    let mut replace = None;
    let mut pass = None;
    for (k, v) in obj {
        match k.as_str() {
            "name" => name = Some(as_str(v, origin, "name")?.to_string()),
            "kind" => kind = Some(as_str(v, origin, "kind")?.to_string()),
            "match" => pattern = Some(v),
            "replace" => replace = Some(v),
            "pass" => pass = Some(as_str(v, origin, "pass")?.to_string()),
            other => {
                return Err(err(format!(
                    "{origin}: rules[{idx}]: unknown key \"{other}\" \
                     (expected \"name\", \"kind\", \"match\", \"replace\", \"pass\")"
                )))
            }
        }
    }
    let name = name.ok_or_else(|| err(format!("{origin}: rules[{idx}]: missing \"name\"")))?;
    let kind = kind.ok_or_else(|| err(format!("{origin}: rule '{name}': missing \"kind\"")))?;
    let where_ = format!("{origin}: rule '{name}'");
    match kind.as_str() {
        "expr" => {
            let p = pattern.ok_or_else(|| err(format!("{where_}: missing \"match\"")))?;
            let r = replace.ok_or_else(|| err(format!("{where_}: missing \"replace\"")))?;
            if pass.is_some() {
                return Err(err(format!("{where_}: \"pass\" is only valid for kind \"pass\"")));
            }
            let pattern = parse_pat(p, &where_)?;
            let replace = parse_template(r, &where_)?;
            let mut bound = Vec::new();
            pattern_binders(&pattern, &mut bound);
            check_template_bound(&replace, &bound, &where_)?;
            Ok(Rule { name, kind: RuleKind::Expr { pattern, replace } })
        }
        "pass" => {
            if pattern.is_some() || replace.is_some() {
                return Err(err(format!(
                    "{where_}: \"match\"/\"replace\" are only valid for kind \"expr\""
                )));
            }
            let p = pass.ok_or_else(|| err(format!("{where_}: missing \"pass\"")))?;
            let pass = PlanPass::from_config_name(&p).ok_or_else(|| {
                let known: Vec<&str> = PlanPass::ALL.iter().map(|p| p.config_name()).collect();
                err(format!("{where_}: unknown pass \"{p}\" (known passes: {})", known.join(", ")))
            })?;
            Ok(Rule { name, kind: RuleKind::Pass(pass) })
        }
        other => {
            Err(err(format!("{where_}: unknown kind \"{other}\" (expected \"expr\" or \"pass\")")))
        }
    }
}

fn as_obj<'a>(j: &'a Json, origin: &str, what: &str) -> Result<&'a [(String, Json)]> {
    match j {
        Json::Obj(kv) => Ok(kv),
        _ => Err(err(format!("{origin}: {what} must be a JSON object"))),
    }
}

fn as_str<'a>(j: &'a Json, origin: &str, what: &str) -> Result<&'a str> {
    match j {
        Json::Str(s) => Ok(s),
        _ => Err(err(format!("{origin}: \"{what}\" must be a string"))),
    }
}

fn as_num(j: &Json, origin: &str, what: &str) -> Result<f64> {
    match j {
        Json::Num(n) => Ok(*n),
        _ => Err(err(format!("{origin}: \"{what}\" must be a number"))),
    }
}

fn parse_binder(s: &str, where_: &str) -> Result<(String, BindKind)> {
    let body = &s[1..];
    let (name, kind) = match body.split_once(':') {
        None => (body, BindKind::Any),
        Some((n, "col")) => (n, BindKind::Col),
        Some((n, "lit")) => (n, BindKind::Lit),
        Some((_, k)) => {
            return Err(err(format!(
                "{where_}: unknown binder kind \"{k}\" in \"{s}\" (expected \"col\" or \"lit\")"
            )))
        }
    };
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(err(format!("{where_}: bad binder name in \"{s}\"")));
    }
    Ok((name.to_string(), kind))
}

fn parse_cmp_op(s: &str) -> Option<CmpOp> {
    match s {
        "=" => Some(CmpOp::Eq),
        "<>" => Some(CmpOp::Ne),
        "<" => Some(CmpOp::Lt),
        "<=" => Some(CmpOp::Le),
        ">" => Some(CmpOp::Gt),
        ">=" => Some(CmpOp::Ge),
        _ => None,
    }
}

fn parse_pat(j: &Json, where_: &str) -> Result<Pat> {
    match j {
        Json::Str(s) if s.starts_with('?') => {
            let (name, kind) = parse_binder(s, where_)?;
            Ok(Pat::Bind(name, kind))
        }
        Json::Str(s) => Err(err(format!(
            "{where_}: pattern atom \"{s}\" is not a binder (binders start with '?')"
        ))),
        Json::Arr(items) => {
            let head = match items.first() {
                Some(Json::Str(s)) => s.as_str(),
                _ => {
                    return Err(err(format!("{where_}: pattern list must start with a form name")))
                }
            };
            let arity = |n: usize| -> Result<()> {
                if items.len() == n + 1 {
                    Ok(())
                } else {
                    Err(err(format!(
                        "{where_}: \"{head}\" takes {n} argument(s), got {}",
                        items.len() - 1
                    )))
                }
            };
            match head {
                "not" => {
                    arity(1)?;
                    Ok(Pat::Not(Box::new(parse_pat(&items[1], where_)?)))
                }
                "and" | "or" => {
                    arity(2)?;
                    let l = Box::new(parse_pat(&items[1], where_)?);
                    let r = Box::new(parse_pat(&items[2], where_)?);
                    Ok(if head == "and" { Pat::And(l, r) } else { Pat::Or(l, r) })
                }
                "cmp" => {
                    arity(3)?;
                    let op = match &items[1] {
                        Json::Str(s) if s.starts_with('?') => {
                            let (name, kind) = parse_binder(s, where_)?;
                            if kind != BindKind::Any {
                                return Err(err(format!(
                                    "{where_}: operator binder \"{s}\" must be untyped"
                                )));
                            }
                            OpPat::Bind(name)
                        }
                        Json::Str(s) => OpPat::Exact(parse_cmp_op(s).ok_or_else(|| {
                            err(format!("{where_}: unknown comparison operator \"{s}\""))
                        })?),
                        _ => {
                            return Err(err(format!(
                                "{where_}: \"cmp\" operator must be a string or \"?op\" binder"
                            )))
                        }
                    };
                    let l = Box::new(parse_pat(&items[2], where_)?);
                    let r = Box::new(parse_pat(&items[3], where_)?);
                    Ok(Pat::Cmp(op, l, r))
                }
                other => Err(err(format!(
                    "{where_}: unknown pattern form \"{other}\" \
                     (expected \"cmp\", \"and\", \"or\", \"not\")"
                ))),
            }
        }
        _ => Err(err(format!("{where_}: pattern must be a binder string or a list"))),
    }
}

fn parse_template(j: &Json, where_: &str) -> Result<Template> {
    match j {
        Json::Str(s) if s.starts_with('?') => {
            let (name, kind) = parse_binder(s, where_)?;
            if kind != BindKind::Any {
                return Err(err(format!(
                    "{where_}: template variable \"{s}\" must be untyped (types live on the pattern)"
                )));
            }
            Ok(Template::Var(name))
        }
        Json::Arr(items) => {
            let head = match items.first() {
                Some(Json::Str(s)) => s.as_str(),
                _ => {
                    return Err(err(format!("{where_}: template list must start with a form name")))
                }
            };
            let arity = |n: usize| -> Result<()> {
                if items.len() == n + 1 {
                    Ok(())
                } else {
                    Err(err(format!(
                        "{where_}: \"{head}\" takes {n} argument(s), got {}",
                        items.len() - 1
                    )))
                }
            };
            match head {
                "not" => {
                    arity(1)?;
                    Ok(Template::Not(Box::new(parse_template(&items[1], where_)?)))
                }
                "and" | "or" => {
                    arity(2)?;
                    let l = Box::new(parse_template(&items[1], where_)?);
                    let r = Box::new(parse_template(&items[2], where_)?);
                    Ok(if head == "and" { Template::And(l, r) } else { Template::Or(l, r) })
                }
                "cmp" => {
                    arity(3)?;
                    let op = parse_op_template(&items[1], where_)?;
                    let l = Box::new(parse_template(&items[2], where_)?);
                    let r = Box::new(parse_template(&items[3], where_)?);
                    Ok(Template::Cmp(op, l, r))
                }
                other => Err(err(format!(
                    "{where_}: unknown template form \"{other}\" \
                     (expected \"cmp\", \"and\", \"or\", \"not\")"
                ))),
            }
        }
        _ => Err(err(format!("{where_}: template must be a \"?var\" string or a list"))),
    }
}

fn parse_op_template(j: &Json, where_: &str) -> Result<OpTemplate> {
    match j {
        Json::Str(s) if s.starts_with('?') => Ok(OpTemplate::Var(parse_binder(s, where_)?.0)),
        Json::Str(s) => Ok(OpTemplate::Exact(
            parse_cmp_op(s)
                .ok_or_else(|| err(format!("{where_}: unknown comparison operator \"{s}\"")))?,
        )),
        Json::Arr(items) => {
            let (f, v) = match items.as_slice() {
                [Json::Str(f), Json::Str(v)] if v.starts_with('?') => (f.as_str(), v.as_str()),
                _ => {
                    return Err(err(format!(
                        "{where_}: operator function must be [\"flip\"|\"negate\", \"?op\"]"
                    )))
                }
            };
            let name = parse_binder(v, where_)?.0;
            match f {
                "flip" => Ok(OpTemplate::Flip(name)),
                "negate" => Ok(OpTemplate::Negate(name)),
                other => Err(err(format!(
                    "{where_}: unknown operator function \"{other}\" \
                     (expected \"flip\" or \"negate\")"
                ))),
            }
        }
        _ => Err(err(format!("{where_}: bad operator position in template"))),
    }
}

fn pattern_binders(p: &Pat, out: &mut Vec<String>) {
    match p {
        Pat::Bind(n, _) => out.push(n.clone()),
        Pat::Cmp(op, l, r) => {
            if let OpPat::Bind(n) = op {
                out.push(n.clone());
            }
            pattern_binders(l, out);
            pattern_binders(r, out);
        }
        Pat::And(l, r) | Pat::Or(l, r) => {
            pattern_binders(l, out);
            pattern_binders(r, out);
        }
        Pat::Not(i) => pattern_binders(i, out),
    }
}

fn check_template_bound(t: &Template, bound: &[String], where_: &str) -> Result<()> {
    let check = |n: &str| -> Result<()> {
        if bound.iter().any(|b| b == n) {
            Ok(())
        } else {
            Err(err(format!("{where_}: template variable \"?{n}\" is not bound by the pattern")))
        }
    };
    match t {
        Template::Var(n) => check(n),
        Template::Cmp(op, l, r) => {
            match op {
                OpTemplate::Var(n) | OpTemplate::Flip(n) | OpTemplate::Negate(n) => check(n)?,
                OpTemplate::Exact(_) => {}
            }
            check_template_bound(l, bound, where_)?;
            check_template_bound(r, bound, where_)
        }
        Template::And(l, r) | Template::Or(l, r) => {
            check_template_bound(l, bound, where_)?;
            check_template_bound(r, bound, where_)
        }
        Template::Not(i) => check_template_bound(i, bound, where_),
    }
}

// ---------------------------------------------------------------------------
// Matching and application.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Binds {
    exprs: Vec<(String, Expr)>,
    ops: Vec<(String, CmpOp)>,
}

/// Structural expression equality ignoring resolved column indexes and
/// the case of column names (rewriting runs before binding; a repeated
/// binder must not care).
fn same_expr(a: &Expr, b: &Expr) -> bool {
    let canonical = |e: &Expr| {
        let mut e = e.clone();
        rename_cols(&mut e, &mut |name| name.make_ascii_uppercase());
        e
    };
    canonical(a) == canonical(b)
}

fn match_pat(p: &Pat, e: &Expr, b: &mut Binds) -> bool {
    match p {
        Pat::Bind(name, kind) => {
            let ok = match kind {
                BindKind::Any => true,
                BindKind::Col => matches!(e, Expr::Col { .. }),
                BindKind::Lit => matches!(e, Expr::Lit(_)),
            };
            if !ok {
                return false;
            }
            if let Some((_, prev)) = b.exprs.iter().find(|(n, _)| n == name) {
                return same_expr(prev, e);
            }
            b.exprs.push((name.clone(), e.clone()));
            true
        }
        Pat::Cmp(op_pat, pl, pr) => match e {
            Expr::Cmp(op, l, r) => {
                match op_pat {
                    OpPat::Exact(want) => {
                        if want != op {
                            return false;
                        }
                    }
                    OpPat::Bind(name) => {
                        if let Some((_, prev)) = b.ops.iter().find(|(n, _)| n == name) {
                            if prev != op {
                                return false;
                            }
                        } else {
                            b.ops.push((name.clone(), *op));
                        }
                    }
                }
                match_pat(pl, l, b) && match_pat(pr, r, b)
            }
            _ => false,
        },
        Pat::And(pl, pr) => match e {
            Expr::And(l, r) => match_pat(pl, l, b) && match_pat(pr, r, b),
            _ => false,
        },
        Pat::Or(pl, pr) => match e {
            Expr::Or(l, r) => match_pat(pl, l, b) && match_pat(pr, r, b),
            _ => false,
        },
        Pat::Not(pi) => match e {
            Expr::Not(i) => match_pat(pi, i, b),
            _ => false,
        },
    }
}

fn instantiate(t: &Template, b: &Binds) -> Expr {
    match t {
        Template::Var(n) => {
            b.exprs.iter().find(|(bn, _)| bn == n).map(|(_, e)| e.clone()).unwrap_or_else(|| {
                // unreachable: load-time validation rejects unbound vars
                Expr::lit(0i64)
            })
        }
        Template::Cmp(op, l, r) => {
            let bound = |n: &str| {
                b.ops.iter().find(|(bn, _)| bn == n).map(|(_, o)| *o).unwrap_or(CmpOp::Eq)
            };
            let op = match op {
                OpTemplate::Exact(o) => *o,
                OpTemplate::Var(n) => bound(n),
                OpTemplate::Flip(n) => bound(n).flip(),
                OpTemplate::Negate(n) => negate_op(bound(n)),
            };
            Expr::cmp(op, instantiate(l, b), instantiate(r, b))
        }
        Template::And(l, r) => Expr::and(instantiate(l, b), instantiate(r, b)),
        Template::Or(l, r) => Expr::or(instantiate(l, b), instantiate(r, b)),
        Template::Not(i) => Expr::not(instantiate(i, b)),
    }
}

/// One whole-tree sweep: expression rules bottom-up over every predicate
/// and projection item, then plan passes bottom-up over the operator
/// tree. `changed` records whether anything fired.
struct Sweep<'a> {
    packs: &'a [RulePack],
    counts: &'a mut Vec<Vec<u64>>,
    changed: bool,
    src: Tables<'a>,
}

impl Sweep<'_> {
    fn expr(&mut self, e: &Expr) -> Expr {
        // children first
        let rebuilt = match e {
            Expr::Col { .. } | Expr::Lit(_) => e.clone(),
            Expr::Cmp(op, l, r) => Expr::cmp(*op, self.expr(l), self.expr(r)),
            Expr::And(l, r) => Expr::and(self.expr(l), self.expr(r)),
            Expr::Or(l, r) => Expr::or(self.expr(l), self.expr(r)),
            Expr::Not(i) => Expr::not(self.expr(i)),
            Expr::Arith(op, l, r) => {
                Expr::Arith(*op, Box::new(self.expr(l)), Box::new(self.expr(r)))
            }
            Expr::Greatest(es) => Expr::Greatest(es.iter().map(|x| self.expr(x)).collect()),
            Expr::Least(es) => Expr::Least(es.iter().map(|x| self.expr(x)).collect()),
            Expr::IsNull(i, neg) => Expr::IsNull(Box::new(self.expr(i)), *neg),
        };
        // then this node: first matching rule fires once per sweep
        for (pi, pack) in self.packs.iter().enumerate() {
            for (ri, rule) in pack.rules.iter().enumerate() {
                let RuleKind::Expr { pattern, replace } = &rule.kind else { continue };
                let mut b = Binds::default();
                if match_pat(pattern, &rebuilt, &mut b) {
                    let new = instantiate(replace, &b);
                    if !same_expr(&new, &rebuilt) {
                        self.counts[pi][ri] += 1;
                        self.changed = true;
                        return new;
                    }
                }
            }
        }
        rebuilt
    }

    fn plan(&mut self, node: Logical) -> Logical {
        // children (and their expressions) first
        let node = match node {
            Logical::Apply { mut op, inputs } => {
                op.visit_exprs_mut(|e| *e = self.expr(e));
                Logical::Apply { op, inputs: inputs.into_iter().map(|i| self.plan(i)).collect() }
            }
            Logical::Sort { keys, input } => {
                Logical::Sort { keys, input: Box::new(self.plan(*input)) }
            }
            Logical::TransferM { input } => {
                Logical::TransferM { input: Box::new(self.plan(*input)) }
            }
            Logical::TransferD { input } => {
                Logical::TransferD { input: Box::new(self.plan(*input)) }
            }
        };
        // then plan passes at this node: first firing pass wins the sweep
        for (pi, pack) in self.packs.iter().enumerate() {
            for (ri, rule) in pack.rules.iter().enumerate() {
                let RuleKind::Pass(pass) = &rule.kind else { continue };
                if let Some(new) = apply_pass(*pass, &node, self.src) {
                    self.counts[pi][ri] += 1;
                    self.changed = true;
                    return new;
                }
            }
        }
        node
    }
}

// ---------------------------------------------------------------------------
// Plan passes.
// ---------------------------------------------------------------------------

fn apply_pass(pass: PlanPass, node: &Logical, src: Tables<'_>) -> Option<Logical> {
    match pass {
        PlanPass::ProductToJoin => pass_product_to_join(node, src),
        PlanPass::MergeSelects => pass_merge_selects(node),
        PlanPass::SqlOverlapToTJoin => pass_overlap_to_tjoin(node, src),
    }
}

/// `node` as an operator over exactly `N` inputs.
fn applied<const N: usize>(node: &Logical) -> Option<(&TOp, &[Logical; N])> {
    match node {
        Logical::Apply { op, inputs } => Some((op, inputs.as_slice().try_into().ok()?)),
        _ => None,
    }
}

/// `σ_{q ∧ p}` keeps exactly the rows where both `q` and `p` are TRUE
/// (Kleene AND), i.e. the rows `σ_p(σ_q(·))` keeps.
fn pass_merge_selects(node: &Logical) -> Option<Logical> {
    let (TOp::Select { pred: p }, [input]) = applied(node)? else { return None };
    let (TOp::Select { pred: q }, [inner]) = applied(input)? else { return None };
    Some(inner.clone().select(Expr::and(q.clone(), p.clone())))
}

fn pass_product_to_join(node: &Logical, src: Tables<'_>) -> Option<Logical> {
    let (TOp::Select { pred }, [input]) = applied(node)? else { return None };
    let (TOp::Product, [left, right]) = applied(input)? else { return None };
    let ls = left.output_schema(src).ok()?;
    let rs = right.output_schema(src).ok()?;
    let concat = concat_schemas(&ls, &rs);
    let nl = ls.len();
    let mut eq: Vec<(String, String)> = Vec::new();
    let mut rest: Vec<Expr> = Vec::new();
    for c in pred.conjuncts() {
        if let Expr::Cmp(CmpOp::Eq, a, b) = c {
            if let (Expr::Col { name: an, .. }, Expr::Col { name: bn, .. }) =
                (a.as_ref(), b.as_ref())
            {
                let ai = concat.index_of(an).ok();
                let bi = concat.index_of(bn).ok();
                if let (Some(ai), Some(bi)) = (ai, bi) {
                    // a cross-input equality becomes a join key: the left
                    // side by its (concatenated) output name, the right
                    // side by the right input's own attribute name —
                    // the convention `Logical::Join` uses everywhere
                    if ai < nl && bi >= nl {
                        eq.push((concat.attr(ai).name.clone(), rs.attr(bi - nl).name.clone()));
                        continue;
                    }
                    if bi < nl && ai >= nl {
                        eq.push((concat.attr(bi).name.clone(), rs.attr(ai - nl).name.clone()));
                        continue;
                    }
                }
            }
        }
        rest.push(c.clone());
    }
    if eq.is_empty() {
        return None;
    }
    let join = left.clone().join(right.clone(), eq);
    // Join and Product share the concatenated output schema, so dropping
    // the consumed conjuncts is layout-preserving by construction.
    Some(match Expr::and_all(rest) {
        Some(p) => join.select(p),
        None => join,
    })
}

/// The inverse of `Translator-To-SQL`'s `TJOIN^D` rendering (Figure 5):
/// `π_{…, GREATEST(A.T1,B.T1), LEAST(A.T2,B.T2)}(σ_{A.T1<B.T2 ∧ B.T1<A.T2}(A ⋈_eq B))`
/// → `π'(A ⋈ᵀ_eq B)`. Sound because `Period::intersect` is defined
/// exactly when `start < end` — the same strict overlap the selection
/// tests — and the intersection endpoints are exactly the
/// `GREATEST`/`LEAST` items. Bails (no fire) unless the shape matches
/// completely and the rewritten output schema is byte-identical.
fn pass_overlap_to_tjoin(node: &Logical, src: Tables<'_>) -> Option<Logical> {
    let (TOp::Project { items }, [input]) = applied(node)? else { return None };
    let (TOp::Select { pred }, [jin]) = applied(input)? else { return None };
    let (TOp::Join { eq }, [left, right]) = applied(jin)? else { return None };
    if eq.is_empty() {
        return None;
    }
    let ls = left.output_schema(src).ok()?;
    let rs = right.output_schema(src).ok()?;
    let (lp1, lp2) = ls.period()?;
    let (rp1, rp2) = rs.period()?;
    let concat = concat_schemas(&ls, &rs);
    let nl = ls.len();
    let cname = |i: usize| concat.attr(i).name.to_string();
    let (lt1, lt2) = (cname(lp1), cname(lp2));
    let (rt1, rt2) = (cname(nl + rp1), cname(nl + rp2));

    // the two strict-overlap conjuncts, in either `<` or flipped `>` form
    let mut start_before_rend = false; // A.T1 < B.T2
    let mut rstart_before_end = false; // B.T1 < A.T2
    let mut rest: Vec<Expr> = Vec::new();
    for c in pred.conjuncts() {
        let lt = match c {
            Expr::Cmp(CmpOp::Lt, x, y) => Some((x.as_ref(), y.as_ref())),
            Expr::Cmp(CmpOp::Gt, x, y) => Some((y.as_ref(), x.as_ref())),
            _ => None,
        };
        if let Some((Expr::Col { name: x, .. }, Expr::Col { name: y, .. })) = lt {
            if !start_before_rend && x.eq_ignore_ascii_case(&lt1) && y.eq_ignore_ascii_case(&rt2) {
                start_before_rend = true;
                continue;
            }
            if !rstart_before_end && x.eq_ignore_ascii_case(&rt1) && y.eq_ignore_ascii_case(&lt2) {
                rstart_before_end = true;
                continue;
            }
        }
        rest.push(c.clone());
    }
    if !(start_before_rend && rstart_before_end) {
        return None;
    }

    // join keys must not be period columns (TJoin drops the right keys
    // and replaces both periods with the intersection)
    for (ln, rn) in eq {
        let li = ls.index_of(ln).ok()?;
        let ri = rs.index_of(rn).ok()?;
        if li == lp1 || li == lp2 || ri == rp1 || ri == rp2 {
            return None;
        }
    }

    let tjs = tjoin_schema(eq, &ls, &rs).ok()?;
    let (tj1, tj2) = {
        let (a, b) = tjs.period()?;
        (tjs.attr(a).name.to_string(), tjs.attr(b).name.to_string())
    };
    // concatenated name → TJoin output name, for every non-period column
    let mut map: Vec<(String, String)> = Vec::new();
    for (i, a) in ls.attrs().iter().enumerate() {
        if i != lp1 && i != lp2 {
            map.push((a.name.clone(), a.name.clone()));
        }
    }
    let left_kept = ls.len() - 2;
    let mut k = 0usize;
    for j in 0..rs.len() {
        if j == rp1 || j == rp2 {
            continue;
        }
        let concat_name = cname(nl + j);
        let key = eq.iter().find(|(_, rc)| rs.index_of(rc).map(|x| x == j).unwrap_or(false));
        match key {
            // a dropped right key is still addressable through its left
            // partner (they are equal on every output row)
            Some((ln, _)) => map.push((concat_name, ln.clone())),
            None => {
                map.push((concat_name, tjs.attr(left_kept + k).name.clone()));
                k += 1;
            }
        }
    }
    let is_period = |n: &str| [&lt1, &lt2, &rt1, &rt2].iter().any(|p| n.eq_ignore_ascii_case(p));
    let remap = |e: &Expr| -> Option<Expr> {
        let mut out = e.clone();
        let mut ok = true;
        rename_cols(&mut out, &mut |name: &mut String| {
            if is_period(name) {
                ok = false;
                return;
            }
            match map.iter().find(|(from, _)| from.eq_ignore_ascii_case(name)) {
                Some((_, to)) => *name = to.clone(),
                None => ok = false,
            }
        });
        ok.then_some(out)
    };
    let is_pair = |es: &[Expr], a: &str, b: &str| -> bool {
        if es.len() != 2 {
            return false;
        }
        let name = |e: &Expr| match e {
            Expr::Col { name, .. } => Some(name.clone()),
            _ => None,
        };
        match (name(&es[0]), name(&es[1])) {
            (Some(x), Some(y)) => {
                (x.eq_ignore_ascii_case(a) && y.eq_ignore_ascii_case(b))
                    || (x.eq_ignore_ascii_case(b) && y.eq_ignore_ascii_case(a))
            }
            _ => false,
        }
    };

    let mut new_items = Vec::with_capacity(items.len());
    for it in items {
        let e = match &it.expr {
            Expr::Greatest(es) if is_pair(es, &lt1, &rt1) => Expr::col(tj1.clone()),
            Expr::Least(es) if is_pair(es, &lt2, &rt2) => Expr::col(tj2.clone()),
            other => remap(other)?,
        };
        new_items.push(ProjItem { expr: e, alias: it.alias.clone() });
    }
    let mut rest_mapped = Vec::with_capacity(rest.len());
    for c in &rest {
        rest_mapped.push(remap(c)?);
    }

    let tjoin = left.clone().tjoin(right.clone(), eq.clone());
    let inner = match Expr::and_all(rest_mapped) {
        Some(p) => tjoin.select(p),
        None => tjoin,
    };
    let new = inner.project(new_items);
    // safety net: the rewrite must preserve the node's output schema
    let before = node.output_schema(src).ok()?;
    let after = new.output_schema(src).ok()?;
    (before == after).then_some(new)
}

/// Apply `f` to every column name of `e`, in place; a renamed column
/// loses the index it was bound to.
fn rename_cols(e: &mut Expr, f: &mut dyn FnMut(&mut String)) {
    e.visit_mut(&mut |n| {
        if let Expr::Col { name, index } = n {
            f(name);
            *index = None;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::{Attr, SortSpec, Type};

    fn position() -> Schema {
        Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpID", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ])
    }

    fn src() -> impl Fn(&str) -> Option<Schema> {
        |t| t.eq_ignore_ascii_case("POSITION").then(position)
    }

    fn pack(text: &str) -> RulePack {
        RulePack::parse(text, "<inline>").unwrap()
    }

    const NOT_CMP: &str = r#"{
        "pack": "t", "description": "d",
        "rules": [
            {"name": "not-cmp", "kind": "expr",
             "match": ["not", ["cmp", "?op", "?a", "?b"]],
             "replace": ["cmp", ["negate", "?op"], "?a", "?b"]}
        ]
    }"#;

    #[test]
    fn not_cmp_fires_and_counts() {
        let rw = Rewriter::from_packs(vec![pack(NOT_CMP)]);
        let plan = Logical::get("POSITION").select(Expr::not(Expr::cmp(
            CmpOp::Gt,
            Expr::col("T1"),
            Expr::lit(10i64),
        )));
        let (out, outcome) = rw.apply(plan, &src());
        let Logical::Apply { op: TOp::Select { pred }, .. } = &out else {
            panic!("expected select")
        };
        assert!(same_expr(&pred.clone(), &Expr::cmp(CmpOp::Le, Expr::col("T1"), Expr::lit(10i64))));
        assert_eq!(outcome.total_fires(), 1);
        assert!(!outcome.budget_hit);
        assert_eq!(outcome.fires[0].pack, "t");
        assert_eq!(outcome.fires[0].rule, "not-cmp");
    }

    #[test]
    fn no_match_leaves_plan_unchanged() {
        let rw = Rewriter::from_packs(vec![pack(NOT_CMP)]);
        let plan = Logical::get("POSITION")
            .select(Expr::cmp(CmpOp::Le, Expr::col("T1"), Expr::lit(10i64)))
            .sort(SortSpec::by(["PosID"]));
        let before = format!("{plan}");
        let (out, outcome) = rw.apply(plan, &src());
        assert_eq!(format!("{out}"), before);
        assert!(outcome.is_empty());
        assert_eq!(outcome.passes, 1);
    }

    #[test]
    fn looping_rules_hit_budget_not_hang() {
        // a comparison-flipper alone loops forever: budget must stop it
        let looping = pack(
            r#"{
            "pack": "loop", "description": "d", "budget": 4,
            "rules": [
                {"name": "flip", "kind": "expr",
                 "match": ["cmp", "?op", "?a", "?b"],
                 "replace": ["cmp", ["flip", "?op"], "?b", "?a"]}
            ]
        }"#,
        );
        let rw = Rewriter::from_packs(vec![looping]);
        let plan = Logical::get("POSITION").select(Expr::cmp(
            CmpOp::Lt,
            Expr::col("T1"),
            Expr::lit(10i64),
        ));
        let (_, outcome) = rw.apply(plan, &src());
        assert!(outcome.budget_hit);
        assert_eq!(outcome.passes, 4);
        assert_eq!(outcome.total_fires(), 4);
    }

    #[test]
    fn binder_kinds_and_repeats() {
        // ?x repeated must bind equal expressions; :lit must reject cols
        let p = pack(
            r#"{
            "pack": "t", "description": "d",
            "rules": [
                {"name": "self-eq", "kind": "expr",
                 "match": ["cmp", "=", "?x:col", "?x:col"],
                 "replace": ["cmp", "<=", "?x", "?x"]}
            ]
        }"#,
        );
        let rw = Rewriter::from_packs(vec![p]);
        let hit = Logical::get("POSITION").select(Expr::eq(Expr::col("T1"), Expr::col("T1")));
        let (_, o) = rw.apply(hit, &src());
        assert_eq!(o.total_fires(), 1);
        let miss = Logical::get("POSITION").select(Expr::eq(Expr::col("T1"), Expr::col("T2")));
        let (_, o) = rw.apply(miss, &src());
        assert_eq!(o.total_fires(), 0);
        let lit = Logical::get("POSITION").select(Expr::eq(Expr::lit(1i64), Expr::lit(1i64)));
        let (_, o) = rw.apply(lit, &src());
        assert_eq!(o.total_fires(), 0, ":col must not match literals");
    }

    #[test]
    fn product_to_join_extracts_cross_keys() {
        let p = pack(
            r#"{
            "pack": "t", "description": "d",
            "rules": [{"name": "p2j", "kind": "pass", "pass": "product-to-join"}]
        }"#,
        );
        let rw = Rewriter::from_packs(vec![p]);
        let plan = Logical::Apply {
            op: TOp::Product,
            inputs: vec![Logical::get("POSITION"), Logical::get("POSITION")],
        }
        .select(Expr::and(
            Expr::eq(Expr::col("PosID"), Expr::col("PosID_2")),
            Expr::cmp(CmpOp::Lt, Expr::col("T1"), Expr::lit(10i64)),
        ));
        let before = plan.output_schema(&src()).unwrap();
        let (out, o) = rw.apply(plan, &src());
        assert_eq!(o.total_fires(), 1);
        let after = out.output_schema(&src()).unwrap();
        assert_eq!(before, after, "rewrite must preserve the output schema");
        let rendered = format!("{out}");
        assert!(rendered.contains("JOIN"), "{rendered}");
        assert!(!rendered.contains("PRODUCT"), "{rendered}");
    }

    /// The fold moves columns to other positions (`EmpID_2` is column 5 of
    /// the join and column 2 of the temporal join), so an index bound
    /// against the join must not survive the rename.
    #[test]
    fn overlap_to_tjoin_unbinds_the_columns_it_renames() {
        let rw = Rewriter::load(&["compat".to_string()]).unwrap(); // that one pass
        let join = Logical::get("POSITION")
            .join(Logical::get("POSITION"), vec![("PosID".to_string(), "PosID".to_string())]);
        let concat = join.output_schema(&src()).unwrap();
        let bound = |e: Expr| e.bound(&concat).unwrap();
        let lt = |a: &str, b: &str| Expr::cmp(CmpOp::Lt, Expr::col(a), Expr::col(b));
        let pred = bound(Expr::and(
            Expr::and(lt("T1", "T2_2"), lt("T1_2", "T2")),
            Expr::cmp(CmpOp::Gt, Expr::col("EmpID_2"), Expr::lit(5i64)),
        ));
        let items = vec![
            ProjItem::named(bound(Expr::col("PosID_2")), "PosID"),
            ProjItem::named(bound(Expr::col("EmpID_2")), "Other"),
            ProjItem::named(bound(Expr::Greatest(vec![Expr::col("T1"), Expr::col("T1_2")])), "T1"),
            ProjItem::named(bound(Expr::Least(vec![Expr::col("T2"), Expr::col("T2_2")])), "T2"),
        ];
        let (out, o) = rw.apply(join.select(pred).project(items), &src());
        assert_eq!(o.total_fires(), 1);
        let Some((TOp::Project { items }, [input])) = applied(&out) else { panic!("{out}") };
        let Some((TOp::Select { pred }, [tjoin])) = applied(input) else { panic!("{out}") };
        assert!(matches!(applied(tjoin), Some((TOp::TJoin { .. }, [_, _]))), "{out}");
        let mut cols = 0;
        for e in items.iter().map(|it| &it.expr).chain([pred]) {
            e.visit(&mut |n| {
                if let Expr::Col { index, .. } = n {
                    cols += 1;
                    assert_eq!(*index, None, "{n} kept the index it had in the join");
                }
            });
        }
        assert_eq!(cols, 5);
    }

    #[test]
    fn malformed_packs_rejected_with_useful_errors() {
        let cases: Vec<(&str, &str)> = vec![
            ("{", "expected"),
            (r#"{"pack": "x"}"#, "missing \"description\""),
            (r#"{"pack": "x", "description": "d"}"#, "missing \"rules\""),
            (r#"{"pack": "x", "description": "d", "rules": []}"#, "must not be empty"),
            (r#"{"pack": "x", "description": "d", "typo": 1, "rules": []}"#, "unknown rule-pack key \"typo\""),
            (
                r#"{"pack": "x", "description": "d", "rules": [{"name": "r", "kind": "pass", "pass": "nope"}]}"#,
                "unknown pass \"nope\" (known passes: product-to-join, merge-selects, sql-overlap-to-tjoin)",
            ),
            (
                r#"{"pack": "x", "description": "d", "rules": [{"name": "r", "kind": "expr", "match": "?a", "replace": "?b"}]}"#,
                "\"?b\" is not bound",
            ),
            (
                r#"{"pack": "x", "description": "d", "rules": [{"name": "r", "kind": "expr", "match": ["wat", "?a"], "replace": "?a"}]}"#,
                "unknown pattern form \"wat\"",
            ),
            (r#"{"pack": "x", "description": "d", "budget": 0, "rules": []}"#, "\"budget\" must be"),
        ];
        for (text, needle) in cases {
            let e = RulePack::parse(text, "<inline>").unwrap_err().to_string();
            assert!(e.contains(needle), "error {e:?} should contain {needle:?}");
            assert!(e.contains("<inline>"), "error {e:?} should name its origin");
        }
        let e = Rewriter::load(&["no-such-pack".to_string()]).unwrap_err().to_string();
        assert!(e.contains("no-such-pack") && e.contains("tried"), "{e}");
    }

    /// Every checked-in file under `rules/` loads, and is named after
    /// the pack it holds (packs are looked up by file stem).
    #[test]
    fn shipped_rule_packs_parse_and_match_their_file_stem() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("rules");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("rules/ directory") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let pack = RulePack::parse(&text, &path.display().to_string()).unwrap();
            assert_eq!(
                Some(pack.name.as_str()),
                path.file_stem().and_then(|s| s.to_str()),
                "pack name must match its file stem"
            );
        }
        assert!(seen >= 3, "expected the three shipped packs under rules/, found {seen}");
    }
}
