// Package expr is REDI's row-predicate expression language: a scanner, a
// Pratt parser, an AST, and a compiler that lowers expressions onto the
// dataset package's predicate bytecode, where evaluation runs over
// dictionary codes and bitmap row-sets (see
// dataset.Partitioned.CompilePredicate).
//
// Grammar (keywords case-insensitive, attribute names case-sensitive bare
// identifiers; keywords are reserved and cannot name attributes):
//
//	expr        = disjunction .
//	disjunction = conjunction { "or" conjunction } .
//	conjunction = unary { "and" unary } .
//	unary       = "not" unary | "(" expr ")" | predicate .
//	predicate   = attr ( ("=" | "!=") value
//	                   | ("<" | "<=" | ">" | ">=") number
//	                   | ["not"] "in" "(" string { "," string } ")"
//	                   | "between" number "and" number
//	                   | "is" ["not"] "null" ) .
//	value       = string | number .
//	string      = "'" chars "'" .       ('' escapes a quote)
//
// Null semantics: every attribute predicate (=, !=, <, in, between, …)
// matches only non-null rows — `age != 40` and `race not in ('x')` require
// the cell to be present. The bare `not` operator is plain boolean
// negation, so `not (race = 'x')` DOES match rows where race is null;
// use `race is not null and not (...)` to exclude them.
//
// Typing: string literals compare against categorical attributes, numbers
// against numeric ones; a mismatch is a compile error at the attribute's
// position. A string literal absent from a column's dictionary is legal
// and constant-folds to false at compile time.
//
// Compilation and evaluation are pure functions of the expression and the
// rows: no clocks, no map iteration reaches any output, and the partition
// driver writes each partition's matches into its own word range and sums
// tallies in partition order, so results are bit-identical across runs,
// worker counts and partition sizes (the determinism contract, DESIGN.md).
package expr

import (
	"fmt"

	"redi/internal/dataset"
)

// Error is a scan, parse, or compile error with the byte offset into the
// source it points at.
type Error struct {
	Off int
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("expr: offset %d: %s", e.Off, e.Msg) }

func errAt(off int, format string, args ...any) *Error {
	return &Error{Off: off, Msg: fmt.Sprintf(format, args...)}
}

// Parse scans and parses src into an AST.
func Parse(src string) (Node, error) {
	toks, err := scanAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, perr := p.parseExpr(0)
	if perr != nil {
		return nil, perr
	}
	if t := p.peek(); t.kind != tEOF {
		return nil, errAt(t.off, "unexpected %s after expression", t.describe())
	}
	return n, nil
}

// CompilePredicate parses src and lowers it to a dataset predicate checked
// against the schema (names and kinds). The predicate is dataset-
// independent: it binds to dictionary codes when a selection compiles it
// against a concrete dataset, so one parse can serve many same-schema
// datasets.
func CompilePredicate(src string, s *dataset.Schema) (dataset.Predicate, error) {
	n, err := Parse(src)
	if err != nil {
		return dataset.Predicate{}, err
	}
	return lower(n, s)
}

// Compile parses src, lowers it against the view's schema, and compiles it
// to bytecode bound to the view's shared dictionaries — the full scanner →
// parser → AST → compiler → bytecode pipeline in one call. The returned
// predicate replays per partition (with present-code pruning); an
// in-memory dataset compiles against d.Partitions(0).
func Compile(src string, pd *dataset.Partitioned) (*dataset.PartitionedPredicate, error) {
	p, err := CompilePredicate(src, pd.Schema())
	if err != nil {
		return nil, err
	}
	pp, _ := pd.CompilePredicate(p) // lowered predicates always compile
	return pp, nil
}
