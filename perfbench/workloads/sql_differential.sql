-- The sql_differential corpus: one query per statement, run against
-- scale-256 TPC-H. Each comment names the operators the statement puts
-- into the executed plans and the exploration rules it is there to
-- exercise; the benchmark refuses a statement that does not parse or whose
-- RuleSet(q) holds no exploration rule.

-- q01 filter + 2-way hash join + grouped aggregate.
-- SelectPushBelowInnerJoin, InnerJoinCommute, EagerGbAggPushBelowJoin*.
SELECT o_orderstatus, COUNT(*) AS n, SUM(l_quantity) AS qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_discount < 5 AND o_totalprice > 100000
GROUP BY o_orderstatus;

-- q02 3-way join chain + scalar aggregate.
-- InnerJoinAssocLeft/Right, InnerJoinCommute, SelectIntoInnerJoin.
SELECT COUNT(*) AS n, MAX(o_totalprice) AS top
FROM customer JOIN orders ON c_custkey = o_custkey
     JOIN lineitem ON o_orderkey = l_orderkey
WHERE c_mktsegment = 'BUILDING' AND l_returnflag = 'R';

-- q03 anti join (NOT EXISTS) over a filtered outer side.
-- AntiJoinToLojFilter, SelectPushBelowSemiJoin.
SELECT o_orderkey, o_totalprice
FROM orders
WHERE o_orderdate > 9500
  AND NOT EXISTS (SELECT l_orderkey FROM lineitem WHERE l_orderkey = o_orderkey);

-- q04 semi join (EXISTS) probing a unique key.
-- SemiJoinToInnerOnKey, SelectPushBelowSemiJoin.
SELECT l_orderkey, l_linenumber, l_extendedprice
FROM lineitem
WHERE l_quantity > 40
  AND EXISTS (SELECT p_partkey FROM part WHERE p_partkey = l_partkey);

-- q05 left outer join under a null-rejecting filter.
-- OuterJoinSimplify, SelectPushBelowOuterJoin, LojCommute.
SELECT c_custkey, c_name, o_orderkey, o_totalprice
FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey
WHERE o_totalprice > 400000 AND c_acctbal > 0;

-- q06 left outer join that must keep its unmatched rows.
-- SelectPushBelowOuterJoin (preserved side only), LojCommute/RojCommute.
SELECT s_suppkey, s_name, ps_partkey, ps_availqty
FROM supplier LEFT OUTER JOIN partsupp ON s_suppkey = ps_suppkey
WHERE s_acctbal < 5000;

-- q07 UNION ALL of two filtered scans under a shared filter.
-- SelectPushBelowUnionAll, UnionAllCommute, SelectMerge.
SELECT k, v FROM (
  SELECT l_orderkey AS k, l_extendedprice AS v FROM lineitem WHERE l_discount = 0
  UNION ALL
  SELECT o_orderkey AS k, o_totalprice AS v FROM orders WHERE o_orderstatus = 'F'
) AS u
WHERE v > 50000;

-- q08 DISTINCT over a join.
-- DistinctToGbAgg, SelectPushBelowDistinct, InnerJoinCommute.
SELECT DISTINCT l_suppkey, l_returnflag
FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
WHERE s_nationkey < 5;

-- q09 filter above DISTINCT (hash distinct vs. aggregate implementation).
-- SelectPushBelowDistinct, DistinctToGbAgg.
SELECT c, s FROM (
  SELECT DISTINCT o_custkey AS c, o_orderstatus AS s FROM orders
) AS d
WHERE s = 'F' AND c > 1000;

-- q10 ORDER BY ... LIMIT over a join.
-- TopSortAbsorb, SelectPushBelowInnerJoin, InnerJoinCommute.
SELECT o_orderkey, o_totalprice, c_name
FROM orders JOIN customer ON o_custkey = c_custkey
WHERE c_nationkey = 3
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 100;

-- q11 grouped aggregate on a key + filter on the grouping column.
-- SelectPushBelowGbAgg, GbAggSplitLocalGlobal, GbAggEliminateOnKey.
SELECT k, revenue, n FROM (
  SELECT l_orderkey AS k, SUM(l_extendedprice) AS revenue, COUNT(*) AS n
  FROM lineitem
  WHERE l_shipdate IS NOT NULL
  GROUP BY l_orderkey
) AS g
WHERE k < 20000 AND revenue > 100000;

-- q12 3-way star join + grouped aggregate + sort.
-- InnerJoinAssoc*, EagerGbAggPushBelowJoin*, SortElimBelowGbAgg.
SELECT p_brand, COUNT(*) AS n, MIN(ps_supplycost) AS cheapest
FROM partsupp JOIN part ON ps_partkey = p_partkey
     JOIN supplier ON ps_suppkey = s_suppkey
WHERE p_size > 10 AND s_acctbal IS NOT NULL
GROUP BY p_brand
ORDER BY p_brand;
