// Package fieldtable checks a checkpointed struct against a table that
// gives each of its fields one row. The row's class says whether
// Snapshot/Restore must carry the field and whether the behavioural
// equality (StateEquals, or Converged at machine level) must compare it;
// Check perturbs the field and follows the change, so what it checks is
// values, not how the methods spell their selectors. Only tests use it.
package fieldtable

import (
	"reflect"
	"testing"
	"unsafe"
)

// Class is what a checkpoint does with a field.
type Class int

const (
	State       Class = iota // carried by Snapshot/Restore and compared by the equality
	Dead                     // carried, not compared: never read back into execution
	Fixed                    // configuration or geometry, set at construction
	Derived                  // rebuilt by Restore, or a memo of immutable inputs
	Bookkeeping              // copy-on-write base or touched list
	Scratch                  // reset before every use
	Wiring                   // pointers to other structures, and hooks
)

// Row is one field's entry in a table. Perturb changes the field; nil
// flips its value in place (see flip), and a row supplies its own where
// an invariant forbids a raw write. View is what the change is followed
// by; nil is a copy of the field's value.
type Row[T any] struct {
	Field   string
	Class   Class
	Reason  string
	Perturb func(x *T)
	View    func(x *T) any
}

// Subject is the struct under test and the operations the table checks.
type Subject[T, S any] struct {
	Source   func() *T // a new instance, always in the same mid-run state
	Blank    func() *T // a new instance to restore into
	Snapshot func(*T) S
	Restore  func(*T, S)
	Encode   func(S) (S, error) // the snapshot after encoding to bytes and decoding
	Equal    func(a, b S) bool  // strict equality of snapshots

	StateEquals func(*T, S) bool

	// Slabs names slice fields that other fields may alias. Such a view
	// needs no row: it rides its slab through the checkpoint, and
	// StateEquals must see a flip of some element of it.
	Slabs []string
}

// Check runs the table. Every field needs exactly one row (a slab view
// may go without), and every row must name a field.
func Check[T, S any](t *testing.T, sub Subject[T, S], rows []Row[T]) {
	t.Helper()
	hasRow := map[string]bool{}
	for _, r := range rows {
		if hasRow[r.Field] {
			t.Errorf("two rows for %s", r.Field)
		}
		hasRow[r.Field] = true
	}
	x := sub.Source()
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[T]()) {
		if f.Anonymous && f.Type.Kind() == reflect.Struct {
			continue // its fields are listed in its place
		}
		fields[f.Name] = true
		switch {
		case hasRow[f.Name]:
		case aliasesSlab(x, f.Name, sub.Slabs):
			t.Run(f.Name, func(t *testing.T) { checkView(t, sub, f.Name) })
		default:
			t.Errorf("field %s has no row: say whether Snapshot/Restore carry it and StateEquals compares it, and why", f.Name)
		}
	}
	for _, r := range rows {
		switch {
		case !fields[r.Field]:
			t.Errorf("row %s names no field", r.Field)
		case r.Reason == "":
			t.Errorf("row %s has no reason", r.Field)
		default:
			t.Run(r.Field, func(t *testing.T) { checkRow(t, sub, r) })
		}
	}
}

func checkRow[T, S any](t *testing.T, sub Subject[T, S], r Row[T]) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("panic: %v", p)
		}
	}()
	perturb, view := r.Perturb, r.View
	if perturb == nil {
		perturb = func(x *T) { flip(field(x, r.Field)) }
	}
	if view == nil {
		view = func(x *T) any { return clone(field(x, r.Field)) }
	}
	src := sub.Source()
	s0 := sub.Snapshot(src)
	before := view(src)
	perturb(src)
	want := view(src)
	if reflect.DeepEqual(before, want) {
		t.Fatal("the perturbation leaves the field unchanged")
	}
	// arrives reports whether a blank instance restored from a snapshot
	// of the perturbed source shows the perturbed view while one restored
	// from s0 does not, each snapshot first passed through enc.
	arrives := func(enc func(S) S) bool {
		d0, d1 := sub.Blank(), sub.Blank()
		sub.Restore(d0, enc(s0))
		sub.Restore(d1, enc(sub.Snapshot(src)))
		return reflect.DeepEqual(view(d1), want) && !reflect.DeepEqual(view(d0), want)
	}
	direct := func(s S) S { return s }
	encoded := func(s S) S {
		d, err := sub.Encode(s)
		if err != nil {
			t.Fatalf("decoding an encoded snapshot: %v", err)
		}
		return d
	}

	if r.Class != State && r.Class != Dead {
		if arrives(direct) {
			t.Error("the perturbation arrives through Snapshot and Restore: the field is state, or its row's reason no longer holds")
		}
		return
	}
	if !arrives(direct) {
		t.Error("the perturbation does not survive Snapshot and Restore")
	}
	if !arrives(encoded) {
		t.Error("the perturbation does not survive Snapshot, the byte encoding and Restore")
	}
	if sub.Equal(sub.Snapshot(src), s0) {
		t.Error("strict Equal does not see the perturbation")
	}

	b := sub.Blank()
	sub.Restore(b, s0)
	perturb(b)
	switch eq := sub.StateEquals(b, s0); {
	case r.Class == State && eq:
		t.Error("StateEquals does not see the perturbation of a state field")
	case r.Class == Dead && !eq:
		t.Error("StateEquals sees the perturbation of a dead field")
	}
}

// checkView flips a slab view one element at a time, on an instance
// restored from a snapshot of the source, until StateEquals sees it.
func checkView[T, S any](t *testing.T, sub Subject[T, S], name string) {
	s0 := sub.Snapshot(sub.Source())
	b := sub.Blank()
	sub.Restore(b, s0)
	v := field(b, name)
	for i := range v.Len() {
		flip(v.Index(i))
		seen := !sub.StateEquals(b, s0)
		flip(v.Index(i))
		if seen {
			return
		}
	}
	t.Errorf("StateEquals sees no element of the %s view", name)
}

// aliasesSlab reports whether field name of x is a slice lying inside
// one of the named slabs.
func aliasesSlab[T any](x *T, name string, slabs []string) bool {
	v := field(x, name)
	if v.Kind() != reflect.Slice || v.Len() == 0 {
		return false
	}
	size := v.Type().Elem().Size()
	for _, s := range slabs {
		sv := field(x, s)
		if sv.Type() == v.Type() && v.Pointer() >= sv.Pointer() &&
			v.Pointer()+uintptr(v.Len())*size <= sv.Pointer()+uintptr(sv.Len())*size {
			return true
		}
	}
	return false
}

// field returns x's field name, settable even when unexported.
func field[T any](x *T, name string) reflect.Value {
	return settable(reflect.ValueOf(x).Elem().FieldByName(name))
}

func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// flip changes v in place, the same way every time: an integer's low
// bit flips, a float grows by one, a bool negates, a string grows,
// every field of a struct flips, a slice's first element flips (an
// empty slice gains one), a pointer gets a fresh zero pointee, and an
// interface becomes nil. Other kinds need a row's own Perturb.
func flip(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() ^ 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() ^ 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Struct:
		for i := range v.NumField() {
			flip(settable(v.Field(i)))
		}
	case reflect.Slice:
		if v.Len() > 0 {
			flip(v.Index(0))
			return
		}
		e := reflect.New(v.Type().Elem()).Elem()
		flip(e)
		v.Set(reflect.Append(v, e))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		v.SetZero()
	default:
		panic("fieldtable: no default perturbation for " + v.Type().String() + "; give the row a Perturb")
	}
}

// clone copies v so that later writes through v leave the copy alone.
func clone(v reflect.Value) any {
	if v.Kind() == reflect.Slice && !v.IsNil() {
		return reflect.AppendSlice(reflect.MakeSlice(v.Type(), 0, v.Len()), v).Interface()
	}
	return v.Interface()
}
