// Package grow holds the two growth rules of the simulator's high-water
// tables: lists that grow one element at a time (edge lists, per-switch
// flow lists, the timing wheel's ready run) and tables indexed by a dense
// slot number (solver scratch, slot-to-flow maps).
//
// Both double the capacity when it runs out. A table that only ever
// grows then copies what it holds about once over its life; append's
// 1.25× step for large slices copies it about four times.
package grow

import "slices"

// Push appends v to s, doubling the capacity when s is full.
func Push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, v)
}

// To returns s extended to length n (at least; a longer s is returned
// as is). The new elements are zero, and the capacity at least doubles
// when it runs out.
func To[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		s = slices.Grow(s, max(n, 2*cap(s))-len(s))
	}
	m := len(s)
	s = s[:n]
	clear(s[m:])
	return s
}
