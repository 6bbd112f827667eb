package cpu

import (
	"math/bits"

	"sevsim/internal/simerr"
)

// Field identifies an injectable hardware array inside the core. Cache
// fields live in the mem package; the machine package unifies both
// namespaces for the injector.
type Field int

const (
	FieldPRF Field = iota
	FieldIQSrc
	FieldIQDst
	FieldLQ
	FieldSQ
	FieldROBPC
	FieldROBDest
	FieldROBOld
	FieldROBCtrl
	NumFields
)

func (f Field) String() string {
	switch f {
	case FieldPRF:
		return "RF"
	case FieldIQSrc:
		return "IQ.src"
	case FieldIQDst:
		return "IQ.dst"
	case FieldLQ:
		return "LQ"
	case FieldSQ:
		return "SQ"
	case FieldROBPC:
		return "ROB.pc"
	case FieldROBDest:
		return "ROB.dest"
	case FieldROBOld:
		return "ROB.old"
	case FieldROBCtrl:
		return "ROB.ctrl"
	}
	return "?"
}

// robIdxBits returns the width of a ROB index in this configuration.
func (c *Core) robIdxBits() int { return bits.Len(uint(c.cfg.ROBSize - 1)) }

// iqSrcEntryBits is the per-entry width of the issue queue Source field:
// two tags plus their ready bits.
func (c *Core) iqSrcEntryBits() int { return 2 * (physTagBits + 1) }

// iqDstEntryBits is the per-entry width of the issue queue Destination
// field: the destination tag plus the ROB linkage.
func (c *Core) iqDstEntryBits() int { return physTagBits + c.robIdxBits() }

// lqEntryBits is the per-entry width of a load queue entry: address,
// destination tag, ROB linkage, and the valid/addr-ready/done state bits.
func (c *Core) lqEntryBits() int { return c.cfg.XLEN + physTagBits + c.robIdxBits() + 3 }

// sqEntryBits is the per-entry width of a store queue entry: address,
// data word, ROB linkage, and the valid/ready state bits.
func (c *Core) sqEntryBits() int { return 2*c.cfg.XLEN + c.robIdxBits() + 2 }

// robCtrlBits is the per-entry width of the ROB control field: the
// architectural destination (5 bits), done, a 3-bit exception code, and
// the store/load/branch kind bits.
const robCtrlBits = 12

// FieldBits returns the total injectable bit count of a field.
func (c *Core) FieldBits(f Field) uint64 {
	switch f {
	case FieldPRF:
		return uint64(c.cfg.NumPhysRegs) * uint64(c.cfg.XLEN)
	case FieldIQSrc:
		return uint64(c.cfg.IQSize) * uint64(c.iqSrcEntryBits())
	case FieldIQDst:
		return uint64(c.cfg.IQSize) * uint64(c.iqDstEntryBits())
	case FieldLQ:
		return uint64(c.cfg.LQSize) * uint64(c.lqEntryBits())
	case FieldSQ:
		return uint64(c.cfg.SQSize) * uint64(c.sqEntryBits())
	case FieldROBPC:
		return uint64(c.cfg.ROBSize) * uint64(c.cfg.XLEN)
	case FieldROBDest, FieldROBOld:
		return uint64(c.cfg.ROBSize) * physTagBits
	case FieldROBCtrl:
		return uint64(c.cfg.ROBSize) * robCtrlBits
	}
	simerr.Assertf("cpu: FieldBits on unknown field %d", f)
	return 0
}

// FlipBit flips one bit of the named field. The bit index addresses the
// raw array, occupied or not: a flip landing on a free entry is masked
// naturally, exactly as in hardware. The bit-to-state mapping is the
// layout contract pinned by TestFieldBitsMatchLayout; the SoA views
// make each case a direct array access.
func (c *Core) FlipBit(f Field, bit uint64) {
	switch f {
	case FieldPRF:
		reg := bit / uint64(c.cfg.XLEN)
		c.prf[reg] ^= 1 << (bit % uint64(c.cfg.XLEN))
	case FieldIQSrc:
		per := uint64(c.iqSrcEntryBits())
		i := bit / per
		switch b := bit % per; {
		case b < physTagBits:
			c.iqSrc1[i] ^= 1 << b
		case b == physTagBits:
			c.iqFlags[i] ^= qRdy1
		case b < 2*physTagBits+1:
			c.iqSrc2[i] ^= 1 << (b - physTagBits - 1)
		default:
			c.iqFlags[i] ^= qRdy2
		}
		c.iqSync(int(i))
	case FieldIQDst:
		per := uint64(c.iqDstEntryBits())
		i := bit / per
		if b := bit % per; b < physTagBits {
			c.iqDest[i] ^= 1 << b
		} else {
			c.iqROB[i] ^= 1 << (b - physTagBits)
		}
	case FieldLQ:
		per := uint64(c.lqEntryBits())
		i := bit / per
		xlen := uint64(c.cfg.XLEN)
		switch b := bit % per; {
		case b < xlen:
			c.lqAddr[i] ^= 1 << b
		case b < xlen+physTagBits:
			c.lqDest[i] ^= 1 << (b - xlen)
		case b < xlen+physTagBits+uint64(c.robIdxBits()):
			c.lqROB[i] ^= 1 << (b - xlen - physTagBits)
		case b == per-3:
			c.lqFlags[i] ^= lValid
		case b == per-2:
			c.lqFlags[i] ^= lAddrReady
		default:
			c.lqFlags[i] ^= lDone
		}
		// Any LQ or SQ bit can change what a load's store-queue check
		// finds: run them all again.
		c.lqSyncPending(int(i))
		c.lqRetry = ^uint64(0)
	case FieldSQ:
		per := uint64(c.sqEntryBits())
		i := bit / per
		xlen := uint64(c.cfg.XLEN)
		switch b := bit % per; {
		case b < xlen:
			c.sqAddr[i] ^= 1 << b
		case b < 2*xlen:
			c.sqData[i] ^= 1 << (b - xlen)
		case b < 2*xlen+uint64(c.robIdxBits()):
			c.sqROB[i] ^= 1 << (b - 2*xlen)
		case b == per-2:
			c.sqFlags[i] ^= sValid
		default:
			c.sqFlags[i] ^= sReady
		}
		c.lqRetry = ^uint64(0)
	case FieldROBPC:
		c.robPC[bit/uint64(c.cfg.XLEN)] ^= 1 << (bit % uint64(c.cfg.XLEN))
	case FieldROBDest:
		c.robDest[bit/physTagBits] ^= 1 << (bit % physTagBits)
	case FieldROBOld:
		c.robOld[bit/physTagBits] ^= 1 << (bit % physTagBits)
	case FieldROBCtrl:
		i := bit / robCtrlBits
		switch b := bit % robCtrlBits; {
		case b < 5:
			c.robArch[i] ^= 1 << b
		case b == 5:
			c.robFlags[i] ^= rDone
		case b < 9:
			c.robExc[i] ^= 1 << (b - 6)
		case b == 9:
			c.robFlags[i] ^= rIsStore
		case b == 10:
			c.robFlags[i] ^= rIsLoad
		default:
			c.robFlags[i] ^= rIsBranch
		}
	default:
		simerr.Assertf("cpu: FlipBit on unknown field %d", f)
	}
}
