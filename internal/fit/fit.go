// Package fit implements the reliability arithmetic of the paper's
// Section VI: per-structure Failures-In-Time (Equation 2), whole-CPU
// FIT, the performance-aware Failures-Per-Execution metric (Equation
// 3), and the ECC protection scenarios of Figure 12.
package fit

import (
	"strings"

	"sevsim/internal/campaign"
	"sevsim/internal/faultinj"
)

// Structure computes Equation 2 for one hardware structure:
//
//	FIT = FIT_bit x #bits x AVF
func Structure(rawFITPerBit float64, bits uint64, avf float64) float64 {
	return rawFITPerBit * float64(bits) * avf
}

// ECCScheme selects which structures are protected, following Figure 12.
type ECCScheme int

const (
	ECCNone   ECCScheme = iota // fully unprotected design
	ECCL1DL2                   // ECC on L1D and L2 (modern designs)
	ECCL2Only                  // ECC on L2 only
)

func (s ECCScheme) String() string {
	switch s {
	case ECCL1DL2:
		return "ECC on L1D+L2"
	case ECCL2Only:
		return "ECC on L2 only"
	}
	return "no ECC"
}

// Schemes lists the three scenarios in Figure 12's order.
func Schemes() []ECCScheme { return []ECCScheme{ECCNone, ECCL1DL2, ECCL2Only} }

// Protected reports whether the scheme covers the structure field (a
// target name like "L1D.data"; its component is the part before the
// first '.'). Single-bit upsets in an ECC-protected array are corrected,
// so the structure's FIT contribution is removed, exactly as the paper
// assumes.
func (s ECCScheme) Protected(field string) bool {
	component, _, _ := strings.Cut(field, ".")
	switch s {
	case ECCL1DL2:
		return component == "L1D" || component == "L2"
	case ECCL2Only:
		return component == "L2"
	}
	return false
}

// CPU sums the per-structure FITs of one (march, bench, level) cell set
// under the given ECC scheme. The results must cover each structure
// field exactly once.
func CPU(results []campaign.Result, rawFITPerBit float64, scheme ECCScheme) float64 {
	total := 0.0
	for _, r := range results {
		if scheme.Protected(r.Target) {
			continue
		}
		total += Structure(rawFITPerBit, r.StructBits, r.AVF())
	}
	return total
}

// CPUByClass splits the whole-CPU FIT by fault-effect class (the
// stacked bars of Figure 10). The paper separates SDC from crash-like
// classes because SDCs are the silent, field-dangerous failures.
func CPUByClass(results []campaign.Result, rawFITPerBit float64, scheme ECCScheme) map[faultinj.Outcome]float64 {
	byClass := map[faultinj.Outcome]float64{}
	for _, r := range results {
		if scheme.Protected(r.Target) {
			continue
		}
		for o := faultinj.SDC; o < faultinj.NumOutcomes; o++ {
			byClass[o] += Structure(rawFITPerBit, r.StructBits, r.ClassRate(o))
		}
	}
	return byClass
}

// FPE computes Equation 3, failures per single program execution:
//
//	FPE = FIT x ExecutionTime / 10^9
//
// with the execution time in hours (FIT is failures per 10^9
// device-hours). Lower is better: more correct executions fit between
// failures.
func FPE(cpuFIT float64, cycles uint64, clockHz float64) float64 {
	hours := float64(cycles) / clockHz / 3600.0
	return cpuFIT * hours / 1e9
}
