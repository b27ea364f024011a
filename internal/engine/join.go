package engine

// SelectJoinQuery is the Section 5 "single predicate with join" extension:
//
//	SELECT * FROM T WHERE udf(arg) = 1 ... JOIN T2 ON T.LeftKey = T2.RightKey
//
// Tuples of T matching many T2 tuples count with that multiplicity in the
// join result, so the optimizer prefers verifying them even at lower
// selectivity. Run executes it (as its join argument) through the same
// planner pipeline as every other shape: group-resolve → join-group →
// sample → solve(join-weights) → prob-eval → merge (see operators.go). The
// output rows are row ids of the base table (joined expansion is left to
// the caller); guarantees are at the join-result level.
type SelectJoinQuery struct {
	Query
	JoinTable string
	LeftKey   string
	RightKey  string
}
