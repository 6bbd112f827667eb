// Cell-granular work items: the one result path of the study engine. A
// Spec decomposes into CellRefs (the exact cells Run computes, in Run's
// deterministic order); the scheduler emits one self-contained
// CellOutcome per finished cell; and the Assembler is the only place
// outcomes become a Study — fresh from the scheduler, replayed from the
// study journal, reported by remote workers, or replayed from the
// coordinator journal, in any completion order — with saved bytes
// identical to a clean single-process Run of the same spec.
package core

import (
	"context"
	"fmt"
	"strings"

	"sevsim/internal/campaign"
)

// CellRef addresses one campaign cell of a spec by name. It is the
// work-item key of the distributed engine: cell identity — not lease
// identity — is what completion is deduplicated on, so a cell computed
// twice by racing workers merges to one deterministic result.
type CellRef struct {
	March  string
	Bench  string
	Level  string
	Target string
}

// Key renders the ref as a stable "march/bench/level/target" string.
func (r CellRef) Key() string {
	return r.March + "/" + r.Bench + "/" + r.Level + "/" + r.Target
}

func (r CellRef) String() string { return r.Key() }

// unit returns the ref's (march, bench, level) unit key.
func (r CellRef) unit() cellKey {
	return cellKey{r.March, r.Bench, r.Level, ""}
}

// Cells enumerates every campaign cell of the spec in the
// deterministic order Run computes them: machines, then benchmarks,
// then levels, then targets. A unit's cells are contiguous, which is
// how a coordinator cuts a study into unit-sized leases.
func (s Spec) Cells() []CellRef {
	out := make([]CellRef, 0, len(s.Machines)*len(s.Benchmarks)*len(s.Levels)*len(s.Targets))
	for _, cfg := range s.Machines {
		for _, bench := range s.Benchmarks {
			for _, level := range s.Levels {
				for _, t := range s.Targets {
					out = append(out, CellRef{
						March: cfg.Name, Bench: bench.Name,
						Level: level.String(), Target: t.Name(),
					})
				}
			}
		}
	}
	return out
}

// CellOutcome is one completed work item and the one result record of
// the engine: the scheduler emits it, both journals store it, workers
// report it, and the Assembler merges it. It carries the cell's
// campaign result plus, once per (march, bench, level) unit, the unit's
// golden record (and static bound, for prune studies) so the receiver
// can reassemble the full Study without re-running anything. Failures
// ride along instead of results when the spec runs keep-going:
// UnitFailure for a quarantined preparation (Result is then the
// deterministic skipped placeholder), CellFailure for a stuck or
// panicking cell.
type CellOutcome struct {
	Cell   CellRef
	Result campaign.Result

	Golden *Golden   `json:",omitempty"`
	Static *StaticRF `json:",omitempty"`

	UnitFailure *Failure `json:",omitempty"`
	CellFailure *Failure `json:",omitempty"`
}

// skipped is the placeholder result of a cell that was not campaigned.
func skipped(ref CellRef, why string) campaign.Result {
	return campaign.Result{March: ref.March, Bench: ref.Bench, Level: ref.Level, Target: ref.Target, Skipped: why}
}

// unitFailed is the outcome of one cell of a unit whose preparation was
// quarantined: the deterministic placeholder, derived from the failure
// alone so an initial run and a resumed run produce identical bytes.
func unitFailed(ref CellRef, f Failure) CellOutcome {
	return CellOutcome{Cell: ref, Result: skipped(ref, "unit "+f.Stage+" failed: "+f.Err), UnitFailure: &f}
}

// CellFailed is the outcome of a cell that will never produce a
// result: it panicked, the watchdog abandoned it, or its leases ran out.
func CellFailed(ref CellRef, f Failure) CellOutcome {
	reason := "cell failed: "
	if f.Stuck {
		reason = "stuck: "
	}
	return CellOutcome{Cell: ref, Result: skipped(ref, reason+f.Err), CellFailure: &f}
}

// check rejects an outcome whose parts name different cells. Outcomes
// arrive from journals and from the network; without this a damaged
// record would land one cell's numbers in another cell's slot.
func (o CellOutcome) check() error {
	unit := o.Cell.unit()
	foreign := func(part string) error {
		return fmt.Errorf("core: outcome for cell %s carries the %s of another cell", o.Cell, part)
	}
	if f := o.UnitFailure; f != nil {
		if (cellKey{f.March, f.Bench, f.Level, f.Target}) != unit {
			return foreign("unit failure")
		}
		return nil // the result is derived from the failure, never read
	}
	if r := o.Result; (CellRef{r.March, r.Bench, r.Level, r.Target}) != o.Cell {
		return foreign("result")
	}
	if g := o.Golden; g != nil && (cellKey{g.March, g.Bench, g.Level, ""}) != unit {
		return foreign("golden record")
	}
	if s := o.Static; s != nil && (cellKey{s.March, s.Bench, s.Level, ""}) != unit {
		return foreign("static bound")
	}
	if f := o.CellFailure; f != nil && (CellRef{f.March, f.Bench, f.Level, f.Target}) != o.Cell {
		return foreign("cell failure")
	}
	return nil
}

// RunCells executes just the requested cells of the spec (in any
// order, duplicates rejected) and returns one outcome per request, in
// the spec's deterministic enumeration order, the golden record of each
// unit on the unit's first returned outcome. Only the units the cells
// touch are compiled and golden-run; every knob of the spec —
// parallelism, journaling with replay, keep-going quarantine, pruning,
// checkpoints — applies exactly as in Run, and each outcome is
// byte-identical to the corresponding slice of a full Run. A worker
// process given a lease of cells calls this with a local journal path,
// so a worker killed mid-lease resumes its own partial work on
// restart.
func (s Spec) RunCells(ctx context.Context, cells []CellRef) ([]CellOutcome, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	asm := NewAssembler(s)
	want := make(map[CellRef]bool, len(cells))
	for _, ref := range cells {
		if _, ok := asm.cellIdx[ref]; !ok {
			return nil, fmt.Errorf("core: cell %s is not in the spec", ref)
		}
		if want[ref] {
			return nil, fmt.Errorf("core: cell %s requested twice", ref)
		}
		want[ref] = true
	}
	got := make(map[CellRef]CellOutcome, len(cells))
	if err := s.run(ctx, asm, want, func(o CellOutcome) { got[o.Cell] = o }); err != nil {
		return nil, err
	}
	// Which of a unit's cells finished first — and so carried the
	// golden through the journal — depends on scheduling; what is
	// returned does not.
	out := make([]CellOutcome, 0, len(cells))
	var carried cellKey // the unit whose golden an earlier outcome already carries
	for _, ref := range asm.cells {
		o, ok := got[ref]
		if !ok {
			continue
		}
		o.Golden, o.Static = nil, nil
		if o.UnitFailure == nil && ref.unit() != carried {
			o.Golden, o.Static = asm.unitGolden(ref)
			carried = ref.unit()
		}
		out = append(out, o)
	}
	return out, nil
}

// Assembler merges CellOutcomes into a Study; nothing else builds one.
// Outcomes may arrive in any order, from any number of workers, and
// more than once (a lease-expiry race can make two workers compute the
// same cell): the first outcome per cell wins and later ones are
// reported as duplicates, so no cell is ever double-counted. When every
// cell of the spec is accounted for, Study returns a result whose saved
// bytes do not depend on who computed what or when — the
// merge-determinism guarantee local runs, resumed runs and the
// distributed service all rest on (values land at canonical slice
// indices, quarantines assemble in unit-enumeration order, and every
// value is itself deterministic given the spec).
type Assembler struct {
	cells []CellRef // the spec's cells, in enumeration order
	nt    int       // cells per unit: cell idx belongs to unit idx/nt
	st    *Study

	cellIdx map[CellRef]int // cell -> index in cells and st.Results

	have        []bool // per cell: outcome recorded
	remaining   int
	failed      int        // merged cells whose outcome carries a failure
	haveGolden  []bool     // per unit: a computed golden, not a quarantine placeholder
	unitFailure []*Failure // per unit
	cellFailure []*Failure // per cell
}

// NewAssembler prepares an empty assembly for the spec's full study.
func NewAssembler(spec Spec) *Assembler {
	st := &Study{Faults: spec.Faults}
	for _, m := range spec.Machines {
		st.MachineNames = append(st.MachineNames, m.Name)
	}
	for _, b := range spec.Benchmarks {
		st.BenchNames = append(st.BenchNames, b.Name)
	}
	for _, l := range spec.Levels {
		st.LevelNames = append(st.LevelNames, l.String())
	}
	for _, t := range spec.Targets {
		st.TargetNames = append(st.TargetNames, t.Name())
	}
	cells := spec.Cells()
	nt := len(spec.Targets)
	units := 0
	if nt > 0 {
		units = len(cells) / nt
	}
	a := &Assembler{
		cells:       cells,
		nt:          nt,
		st:          st,
		cellIdx:     make(map[CellRef]int, len(cells)),
		have:        make([]bool, len(cells)),
		remaining:   len(cells),
		haveGolden:  make([]bool, units),
		unitFailure: make([]*Failure, units),
		cellFailure: make([]*Failure, len(cells)),
	}
	for i, ref := range cells {
		a.cellIdx[ref] = i
	}
	st.Goldens = make([]Golden, units)
	st.Results = make([]campaign.Result, len(cells))
	if spec.Prune {
		st.Static = make([]StaticRF, units)
	}
	return a
}

// Has reports whether the cell is already accounted for.
func (a *Assembler) Has(ref CellRef) bool {
	idx, ok := a.cellIdx[ref]
	return ok && a.have[idx]
}

// unitGolden returns the computed golden record (and static bound) of
// the cell's unit, nil until an outcome has delivered it.
func (a *Assembler) unitGolden(ref CellRef) (*Golden, *StaticRF) {
	ui := a.cellIdx[ref] / a.nt
	if !a.haveGolden[ui] {
		return nil, nil
	}
	if a.st.Static == nil {
		return &a.st.Goldens[ui], nil
	}
	return &a.st.Goldens[ui], &a.st.Static[ui]
}

// Check reports whether Add would merge the outcome: an error for a
// cell outside the spec or an outcome that contradicts itself, false
// for a cell already accounted for. It lets a caller that must make an
// outcome durable before merging it (the coordinator) journal only
// what will be accepted.
func (a *Assembler) Check(o CellOutcome) (fresh bool, err error) {
	idx, ok := a.cellIdx[o.Cell]
	if !ok {
		return false, fmt.Errorf("core: cell %s is not in the spec", o.Cell)
	}
	if err := o.check(); err != nil {
		return false, err
	}
	return !a.have[idx], nil
}

// Add merges one outcome. It reports whether the outcome was accepted:
// false with a nil error means the cell was already complete (the
// deduplicated double-completion of a lease-expiry race, or a journal
// record seen twice) and the new outcome was discarded.
func (a *Assembler) Add(o CellOutcome) (accepted bool, err error) {
	if fresh, err := a.Check(o); !fresh {
		return false, err
	}
	idx := a.cellIdx[o.Cell]
	ui := idx / a.nt
	a.have[idx] = true
	a.remaining--
	if o.UnitFailure != nil || o.CellFailure != nil {
		a.failed++
	}

	if f := o.UnitFailure; f != nil {
		// A quarantined preparation: this cell contributes the unit's
		// failure record (once) and the deterministic placeholder, and
		// the unit's golden slot names the unit until (unless) a real
		// golden arrives with another cell.
		if a.unitFailure[ui] == nil {
			a.unitFailure[ui] = f
		}
		a.st.Results[idx] = unitFailed(o.Cell, *f).Result
		if !a.haveGolden[ui] {
			a.st.Goldens[ui] = Golden{March: f.March, Bench: f.Bench, Level: f.Level}
			if a.st.Static != nil {
				a.st.Static[ui] = StaticRF{March: f.March, Bench: f.Bench, Level: f.Level}
			}
		}
		return true, nil
	}

	a.st.Results[idx] = o.Result
	a.cellFailure[idx] = o.CellFailure
	if o.Golden != nil && !a.haveGolden[ui] {
		a.st.Goldens[ui] = *o.Golden
		if a.st.Static != nil && o.Static != nil {
			a.st.Static[ui] = *o.Static
		}
		a.haveGolden[ui] = true
	}
	return true, nil
}

// Done returns how many of the spec's cells are accounted for.
func (a *Assembler) Done() int { return len(a.have) - a.remaining }

// Failed returns how many of the merged cells carry a failure.
func (a *Assembler) Failed() int { return a.failed }

// Total returns the spec's cell count.
func (a *Assembler) Total() int { return len(a.have) }

// Complete reports whether every cell is accounted for.
func (a *Assembler) Complete() bool { return a.remaining == 0 }

// Missing lists the cells not yet accounted for, in enumeration order.
func (a *Assembler) Missing() []CellRef {
	var out []CellRef
	for i, ref := range a.cells {
		if !a.have[i] {
			out = append(out, ref)
		}
	}
	return out
}

// Study finalizes the assembly. It fails if any cell is still missing:
// a partial study must never masquerade as a complete one.
func (a *Assembler) Study() (*Study, error) {
	if a.remaining > 0 {
		missing := a.Missing()
		keys := make([]string, 0, min(len(missing), 5))
		for i, ref := range missing {
			if i == 5 {
				break
			}
			keys = append(keys, ref.Key())
		}
		return nil, fmt.Errorf("core: assembly incomplete: %d of %d cells missing (first: %s)",
			a.remaining, len(a.have), strings.Join(keys, ", "))
	}
	// Quarantine records assemble in unit-enumeration order, each
	// unit's failure first, then its per-target cell failures.
	st := a.st
	st.Failed = nil
	for ui, f := range a.unitFailure {
		if f != nil {
			st.Failed = append(st.Failed, *f)
		}
		for _, cf := range a.cellFailure[ui*a.nt : (ui+1)*a.nt] {
			if cf != nil {
				st.Failed = append(st.Failed, *cf)
			}
		}
	}
	return st, nil
}
