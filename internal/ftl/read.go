package ftl

import (
	"fmt"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
)

// ReadClass categorizes a host page read the way the paper's Figure 4 does:
// by the page type read and by whether any associated faster page of the
// same wordline is already invalid (the scenarios IDA coding targets).
type ReadClass int

// Figure 4 categories. "LowerInvalid" means at least one faster page of the
// wordline is invalid while the read page is valid.
const (
	ReadLSB ReadClass = iota
	ReadCSBAllValid
	ReadCSBLowerInvalid
	ReadMSBAllValid
	ReadMSBLowerInvalid
	numReadClasses
)

// String names the class.
func (c ReadClass) String() string {
	switch c {
	case ReadLSB:
		return "LSB"
	case ReadCSBAllValid:
		return "CSB(valid)"
	case ReadCSBLowerInvalid:
		return "CSB(LSB-invalid)"
	case ReadMSBAllValid:
		return "MSB(valid)"
	case ReadMSBLowerInvalid:
		return "MSB(lower-invalid)"
	default:
		return fmt.Sprintf("ReadClass(%d)", int(c))
	}
}

// ReadInfo describes one physical page read: where it goes, how many
// sensings the memory-access stage needs under the wordline's current
// coding, and its Figure 4 classification.
type ReadInfo struct {
	Addr   flash.PageAddr
	LPN    LPN
	Type   coding.PageType
	Senses int
	Class  ReadClass
	// IDA reports whether the wordline was reprogrammed with IDA coding.
	IDA bool
}

// Read resolves a host read of the LPN. The boolean is false when the LPN
// is unmapped (never written or trimmed).
func (f *FTL) Read(lpn LPN) (ReadInfo, bool) {
	p, ok := f.l2p.get(lpn)
	if !ok {
		return ReadInfo{}, false
	}
	pl, blk, page := f.unpackPPN(p)
	w, t := f.wordline(f.blockID(pl, blk), page)
	info := ReadInfo{
		Addr:   pageAddr(pl, blk, page),
		LPN:    lpn,
		Type:   t,
		Senses: f.sensesAt(w, t),
		IDA:    f.wlKeep[w] != 0,
		Class:  classify(coding.ValidMask(f.wlValid[w]), t),
	}
	f.stats.HostReads++
	f.stats.ReadsByClass[info.Class]++
	f.stats.ReadsBySenses[info.Senses]++
	if info.IDA {
		f.stats.ReadsFromIDA++
	}
	return info, true
}

// classify buckets a read of page type t on a wordline with validity mask
// for Figure 4. Pages above CSB in >3-bit cells fold into the MSB buckets
// (the paper's TLC taxonomy generalized).
func classify(mask coding.ValidMask, t coding.PageType) ReadClass {
	if t == coding.LSB {
		return ReadLSB
	}
	lower := coding.MaskAll(int(t))
	lowerInvalid := mask&lower != lower
	if t == coding.CSB {
		if lowerInvalid {
			return ReadCSBLowerInvalid
		}
		return ReadCSBAllValid
	}
	if lowerInvalid {
		return ReadMSBLowerInvalid
	}
	return ReadMSBAllValid
}
