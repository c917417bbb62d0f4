//! Aggregate functions and their accumulators.
//!
//! The supported set (COUNT(*), COUNT, SUM, MIN, MAX) is exactly the
//! decomposable core that the local/global aggregation-split and eager
//! aggregation rules are defined over. AVG is intentionally excluded: its
//! division would introduce cross-plan rounding divergence in correctness
//! validation (see DESIGN.md).

use ruletest_common::{wire_names, wire_record, ColId, DataType, Value};

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(col)` — counts non-null values.
    Count,
    /// `SUM(col)` — NULL over an empty/all-null group.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

wire_names!(AggFunc {
    CountStar => "count_star",
    Count => "count",
    Sum => "sum",
    Min => "min",
    Max => "max",
});

impl AggFunc {
    /// The function that combines partial results of this aggregate when an
    /// aggregation is split into local and global phases:
    /// `COUNT -> SUM of partial counts`, the others are self-combining.
    pub fn combining_func(self) -> AggFunc {
        match self {
            AggFunc::CountStar | AggFunc::Count => AggFunc::Sum,
            AggFunc::Sum => AggFunc::Sum,
            AggFunc::Min => AggFunc::Min,
            AggFunc::Max => AggFunc::Max,
        }
    }

    /// Output type given the argument type (COUNT variants are INT
    /// regardless; SUM requires INT; MIN/MAX preserve).
    pub fn output_type(self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count | AggFunc::Sum => DataType::Int,
            AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Int),
        }
    }

    /// SQL name.
    pub fn sql_name(self) -> &'static str {
        match self {
            AggFunc::CountStar | AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate in a Group-By Aggregate operator: the function, its column
/// argument (None only for COUNT(*)), and the output column id it produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggCall {
    pub func: AggFunc,
    pub arg: Option<ColId>,
    pub output: ColId,
}

wire_record!(AggCall { "arg" => arg, "func" => func, "out" => output });

impl AggCall {
    pub fn new(func: AggFunc, arg: Option<ColId>, output: ColId) -> Self {
        debug_assert_eq!(arg.is_none(), func == AggFunc::CountStar);
        Self { func, arg, output }
    }

    /// Renders the call over a rendered argument, e.g. `SUM(t0.a)`.
    pub fn render(&self, arg_sql: &str) -> String {
        match self.func {
            AggFunc::CountStar => "COUNT(*)".to_string(),
            f => format!("{}({})", f.sql_name(), arg_sql),
        }
    }
}

/// Running state for one aggregate over one group.
#[derive(Debug, Clone)]
pub enum AggAccumulator {
    Count(i64),
    Sum { sum: i64, saw_value: bool },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggAccumulator {
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggAccumulator::Count(0),
            AggFunc::Sum => AggAccumulator::Sum {
                sum: 0,
                saw_value: false,
            },
            AggFunc::Min => AggAccumulator::Min(None),
            AggFunc::Max => AggAccumulator::Max(None),
        }
    }

    /// Feeds one input value. For COUNT(*) the value is ignored (callers
    /// pass `Value::Bool(true)` or anything non-null); for the others, SQL
    /// null-skipping applies.
    pub fn update(&mut self, func: AggFunc, v: &Value) {
        match (self, func) {
            (AggAccumulator::Count(n), AggFunc::CountStar) => *n += 1,
            (AggAccumulator::Count(n), AggFunc::Count) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            (AggAccumulator::Sum { sum, saw_value }, _) => {
                if let Some(i) = v.as_int() {
                    *sum = sum.wrapping_add(i);
                    *saw_value = true;
                }
            }
            (AggAccumulator::Min(cur), _) => {
                if !v.is_null() {
                    match cur {
                        Some(m) if v.sql_cmp(m) != Some(std::cmp::Ordering::Less) => {}
                        _ => *cur = Some(v.clone()),
                    }
                }
            }
            (AggAccumulator::Max(cur), _) => {
                if !v.is_null() {
                    match cur {
                        Some(m) if v.sql_cmp(m) != Some(std::cmp::Ordering::Greater) => {}
                        _ => *cur = Some(v.clone()),
                    }
                }
            }
            (acc, f) => panic!("accumulator/function mismatch: {acc:?} vs {f:?}"),
        }
    }

    /// Finalizes the aggregate for the group.
    pub fn finish(self) -> Value {
        match self {
            AggAccumulator::Count(n) => Value::Int(n),
            AggAccumulator::Sum { sum, saw_value } => {
                if saw_value {
                    Value::Int(sum)
                } else {
                    Value::Null
                }
            }
            AggAccumulator::Min(v) | AggAccumulator::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = AggAccumulator::new(func);
        for v in vals {
            acc.update(func, v);
        }
        acc.finish()
    }

    #[test]
    fn count_star_counts_everything() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3)];
        assert_eq!(run(AggFunc::CountStar, &vals), Value::Int(3));
    }

    #[test]
    fn count_skips_nulls() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3)];
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(2));
    }

    #[test]
    fn sum_of_empty_or_all_null_is_null() {
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Sum, &[Value::Null, Value::Null]), Value::Null);
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(2), Value::Null, Value::Int(5)]),
            Value::Int(7)
        );
    }

    #[test]
    fn min_max_skip_nulls_and_handle_strings() {
        let vals = vec![
            Value::Str("m".into()),
            Value::Null,
            Value::Str("a".into()),
            Value::Str("z".into()),
        ];
        assert_eq!(run(AggFunc::Min, &vals), Value::Str("a".into()));
        assert_eq!(run(AggFunc::Max, &vals), Value::Str("z".into()));
        assert_eq!(run(AggFunc::Min, &[Value::Null]), Value::Null);
    }

    #[test]
    fn combining_functions_are_decomposition_correct() {
        // Split [1,2,NULL,4] into [1,2] and [NULL,4]; combining partials must
        // equal the direct aggregate.
        let all = [Value::Int(1), Value::Int(2), Value::Null, Value::Int(4)];
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            let direct = run(func, &all);
            let p1 = run(func, &all[..2]);
            let p2 = run(func, &all[2..]);
            let combined = run(func.combining_func(), &[p1, p2]);
            assert_eq!(combined, direct, "{func:?}");
        }
        // COUNT(*) combines via SUM too.
        let direct = run(AggFunc::CountStar, &all);
        let p1 = run(AggFunc::CountStar, &all[..1]);
        let p2 = run(AggFunc::CountStar, &all[1..]);
        assert_eq!(run(AggFunc::Sum, &[p1, p2]), direct);
    }

    #[test]
    fn render_and_types() {
        let call = AggCall::new(AggFunc::CountStar, None, ColId(9));
        assert_eq!(call.render(""), "COUNT(*)");
        let call = AggCall::new(AggFunc::Sum, Some(ColId(1)), ColId(9));
        assert_eq!(call.render("t.a"), "SUM(t.a)");
        assert_eq!(AggFunc::Sum.output_type(Some(DataType::Int)), DataType::Int);
        assert_eq!(AggFunc::Min.output_type(Some(DataType::Str)), DataType::Str);
        assert_eq!(AggFunc::Count.output_type(None), DataType::Int);
    }
}
