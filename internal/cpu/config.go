// Package cpu implements the sevsim out-of-order processor core: a
// seven-structure superscalar pipeline (fetch queue, rename map + free
// list, reorder buffer, issue queue, load queue, store queue, physical
// register file) with bimodal branch prediction, speculative execution,
// store-to-load forwarding, and precise exceptions.
//
// Every named hardware structure the paper injects faults into is an
// authoritative array in this package: execution reads its operands from
// the physical register file values, wakeup matches the issue-queue tag
// bits, loads use the address bits held in their load-queue entry, and
// commit trusts the reorder buffer's own fields. FlipBit therefore
// perturbs the exact state the pipeline runs on.
package cpu

// Config describes one core's resources and timing.
type Config struct {
	Name        string
	XLEN        int // machine word width: 32 or 64
	NumArchRegs int // architectural registers exposed to software
	NumPhysRegs int // physical register file size

	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	WBWidth     int

	FetchQueueSize int

	ALULat int
	MulLat int
	DivLat int

	BimodalSize int // entries of 2-bit counters; power of two
	BTBSize     int // power of two
	RASSize     int

	// StoreForwarding enables store-to-load forwarding from the store
	// queue (ablation knob; on in the standard configurations).
	StoreForwarding bool
}
