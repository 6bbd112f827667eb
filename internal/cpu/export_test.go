package cpu

// SideEvents returns how many of t's events its chunks' side tables
// hold; exported for the tests of package cpu_test.
func SideEvents(t *CommitTrace) int {
	n := 0
	for _, c := range t.chunks {
		n += len(c.side)
	}
	return n
}
