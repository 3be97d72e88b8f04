package grow

import "testing"

// TestPushDoubles: a full list at least doubles, so the pushes that fill
// a list copy fewer elements in all than its final capacity.
func TestPushDoubles(t *testing.T) {
	var s []int
	copied := 0
	for i := range 100_000 {
		if len(s) == cap(s) {
			copied += len(s)
		}
		before := cap(s)
		s = Push(s, i)
		if c := cap(s); c != before && c < 2*before {
			t.Fatalf("cap %d → %d at len %d: less than doubled", before, c, len(s)-1)
		}
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("s[%d] = %d", i, v)
		}
	}
	if copied >= cap(s) {
		t.Errorf("%d elements copied to grow a list to capacity %d", copied, cap(s))
	}
}

// TestToZeroFills: To keeps what s holds and zeroes what it adds, also
// when the added elements reuse capacity a shorter s left behind.
func TestToZeroFills(t *testing.T) {
	s := To([]int32(nil), 8)
	for i := range s {
		s[i] = int32(i + 1)
	}
	s = To(s[:2], 8)
	want := []int32{1, 2, 0, 0, 0, 0, 0, 0}
	if len(s) != len(want) {
		t.Fatalf("len %d, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("s = %v, want %v", s, want)
		}
	}
	if got := To(s, 3); len(got) != 8 {
		t.Errorf("To to a shorter length returned len %d, want 8", len(got))
	}
}
