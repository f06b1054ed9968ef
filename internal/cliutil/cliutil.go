// Package cliutil holds the small parsing helpers shared by the cmd/ tools.
package cliutil

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
)

// ParsePoints parses a comma-separated m̂ list like "3,4,5" into ints.
func ParsePoints(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("m̂ list is required (e.g. 3,4,5)")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad m̂ value %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseBigCount accepts plain decimal integers of any size or
// "<mantissa>e<exponent>" shorthand (e.g. "1e30") and returns the value.
func ParseBigCount(s string) (*big.Int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("count is required")
	}
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		mant, err := strconv.ParseInt(s[:i], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad mantissa in %q: %w", s, err)
		}
		exp, err := strconv.ParseInt(s[i+1:], 10, 32)
		if err != nil || exp < 0 {
			return nil, fmt.Errorf("bad exponent in %q", s)
		}
		out := new(big.Int).Exp(big.NewInt(10), big.NewInt(exp), nil)
		return out.Mul(out, big.NewInt(mant)), nil
	}
	out, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return nil, fmt.Errorf("bad count %q", s)
	}
	return out, nil
}

// ParseShard parses a "k/K" shard spec into its index and total. Both
// halves must be complete integers — trailing garbage ("1/2x", "1/2/8")
// would silently select the wrong slice of the plan, so it is rejected,
// not ignored.
func ParseShard(spec string) (k, total int, err error) {
	lo, hi, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q: want k/K (e.g. 0/4)", spec)
	}
	if k, err = strconv.Atoi(lo); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %v", spec, err)
	}
	if total, err = strconv.Atoi(hi); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %v", spec, err)
	}
	if total < 1 || k < 0 || k >= total {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 ≤ k < K", spec)
	}
	return k, total, nil
}
