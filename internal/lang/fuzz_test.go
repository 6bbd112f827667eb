package lang_test

import (
	"reflect"
	"testing"

	"sevsim/internal/lang"
	"sevsim/internal/workloads"
)

// FuzzParse: Parse never panics, and it is a function of its input: two
// parses of the same bytes give deeply equal programs and errors.
func FuzzParse(f *testing.F) {
	for _, b := range workloads.All() {
		f.Add(b.Source(b.TestSize))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err1 := lang.Parse(src)
		p2, err2 := lang.Parse(src)
		if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(err1, err2) {
			t.Fatalf("two parses differ: %v / %v", err1, err2)
		}
	})
}
