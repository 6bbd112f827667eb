package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCommittedRunReproduces re-derives two units of the committed
// paper-sized run (results/study.json: DefaultSpec(2000) at seed 2021,
// as sevrepro writes it) and requires every one of their 30 cells, and
// each unit's golden record, to equal the committed ones.
//
// The units are Cortex-A72-like fft O1 and Cortex-A15-like sha O2: one
// per march, two benchmarks and two optimized levels, all fifteen
// targets each, and together about 7 s on a 2-CPU host. They are
// picked for that cost alone. The whole run re-derives results/ byte
// for byte, so no unit is known to differ and the choice avoids none.
func TestCommittedRunReproduces(t *testing.T) {
	st, err := Load(filepath.Join("..", "..", "results", "study.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSpec(2000)
	spec.Seed = 2021
	units := map[cellKey]bool{
		{"Cortex-A72-like", "fft", "O1", ""}: true,
		{"Cortex-A15-like", "sha", "O2", ""}: true,
	}
	var cells []CellRef
	want := map[CellRef]int{} // cell -> index in st.Results
	for i, ref := range spec.Cells() {
		if units[ref.unit()] {
			cells = append(cells, ref)
			want[ref] = i
		}
	}
	if len(cells) != 30 || len(st.Results) != len(spec.Cells()) {
		t.Fatalf("%d cells picked, %d committed results for %d spec cells", len(cells), len(st.Results), len(spec.Cells()))
	}
	got, err := spec.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range got {
		i := want[o.Cell]
		if !reflect.DeepEqual(o.Result, st.Results[i]) {
			t.Errorf("%s: re-derived %+v, committed %+v", o.Cell, o.Result, st.Results[i])
		}
		if o.Golden != nil && !reflect.DeepEqual(*o.Golden, st.Goldens[i/len(spec.Targets)]) {
			t.Errorf("%s: re-derived golden %+v, committed %+v", o.Cell, *o.Golden, st.Goldens[i/len(spec.Targets)])
		}
	}
	if len(got) != len(cells) {
		t.Errorf("RunCells returned %d outcomes for %d cells", len(got), len(cells))
	}
}
