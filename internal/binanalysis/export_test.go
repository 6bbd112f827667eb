package binanalysis

// ComputeKnownBits lets the external fuzz tests read the known-bits
// masks in effect before each instruction.
var ComputeKnownBits = computeKnownBits
