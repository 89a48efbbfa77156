// Package flash describes the physical NAND device: its geometry (channels,
// chips, dies, planes, blocks, wordlines), its timing behaviour, the order
// in which pages are programmed, and the cell model that maps wordline
// coding state to sensing counts. It is a pure description; all mutable
// device state lives in the FTL (internal/ftl) and the discrete-event
// simulator (internal/ssd).
package flash

import (
	"fmt"
)

// Geometry describes the physical organization of an SSD, following the
// hierarchy of the paper's Figure 1 and Table II: channels connect chips,
// chips contain dies, dies contain planes, planes contain blocks, and every
// block is an array of wordlines each holding BitsPerCell logical pages.
type Geometry struct {
	Channels          int // independent DDR buses
	ChipsPerChannel   int // flash chips sharing one channel
	DiesPerChip       int // independently operable dies per chip
	PlanesPerDie      int // planes per die
	BlocksPerPlane    int // erase blocks per plane
	WordlinesPerBlock int // wordlines (rows) per block
	PageSizeBytes     int // logical page size (the read/write unit)
	BitsPerCell       int // 1=SLC, 2=MLC, 3=TLC, 4=QLC
}

// PaperTLC returns the paper's Table II baseline geometry: a 512 GB SSD of
// sixteen 32 GB TLC chips on 4 channels (2 dies/chip, 2 planes/die, 5472
// blocks/plane, 192 8 KB pages per block = 64 wordlines x 3).
func PaperTLC() Geometry {
	return Geometry{
		Channels:          4,
		ChipsPerChannel:   4,
		DiesPerChip:       2,
		PlanesPerDie:      2,
		BlocksPerPlane:    5472,
		WordlinesPerBlock: 64,
		PageSizeBytes:     8 * 1024,
		BitsPerCell:       3,
	}
}

// Validate reports the first structural problem with the geometry, or nil.
func (g Geometry) Validate() error {
	checks := []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"ChipsPerChannel", g.ChipsPerChannel},
		{"DiesPerChip", g.DiesPerChip},
		{"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlane", g.BlocksPerPlane},
		{"WordlinesPerBlock", g.WordlinesPerBlock},
		{"PageSizeBytes", g.PageSizeBytes},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("flash: geometry %s = %d, must be positive", c.name, c.v)
		}
	}
	if g.BitsPerCell < 1 || g.BitsPerCell > 8 {
		return fmt.Errorf("flash: geometry BitsPerCell = %d, must be in [1,8]", g.BitsPerCell)
	}
	return nil
}

// PagesPerBlock returns the number of logical pages in a block.
func (g Geometry) PagesPerBlock() int { return g.WordlinesPerBlock * g.BitsPerCell }

// Chips returns the total chip count.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// Dies returns the total die count across the device.
func (g Geometry) Dies() int { return g.Chips() * g.DiesPerChip }

// Planes returns the total plane count across the device.
func (g Geometry) Planes() int { return g.Dies() * g.PlanesPerDie }

// TotalBlocks returns the total block count across the device.
func (g Geometry) TotalBlocks() int { return g.Planes() * g.BlocksPerPlane }

// TotalPages returns the total page count across the device.
func (g Geometry) TotalPages() int64 {
	return int64(g.TotalBlocks()) * int64(g.PagesPerBlock())
}

// CapacityBytes returns the raw device capacity.
func (g Geometry) CapacityBytes() int64 {
	return g.TotalPages() * int64(g.PageSizeBytes)
}

// String summarizes the geometry.
func (g Geometry) String() string {
	return fmt.Sprintf("%d ch x %d chip x %d die x %d plane, %d blk/plane, %d WL x %d bit, %d B pages (%.1f GB)",
		g.Channels, g.ChipsPerChannel, g.DiesPerChip, g.PlanesPerDie,
		g.BlocksPerPlane, g.WordlinesPerBlock, g.BitsPerCell, g.PageSizeBytes,
		float64(g.CapacityBytes())/(1<<30))
}

// PlaneID is a linear plane index in CWDP order: channel-major, then chip,
// then die, then plane. Consecutive PlaneIDs therefore rotate through the
// full hierarchy exactly the way the CWDP static allocator strides.
type PlaneID int

// PlaneCoord locates a plane within the device hierarchy.
type PlaneCoord struct {
	Channel, Chip, Die, Plane int
}

// PlaneOf composes a PlaneID from hierarchy coordinates.
func (g Geometry) PlaneOf(c PlaneCoord) PlaneID {
	return PlaneID(((c.Channel*g.ChipsPerChannel+c.Chip)*g.DiesPerChip+c.Die)*g.PlanesPerDie + c.Plane)
}

// DieOf returns a linear die index for the plane, used to model per-die
// occupancy (one flash command at a time per die).
func (g Geometry) DieOf(p PlaneID) int { return int(p) / g.PlanesPerDie }

// ChannelOf returns the channel index the plane's chip is attached to.
func (g Geometry) ChannelOf(p PlaneID) int {
	return int(p) / (g.PlanesPerDie * g.DiesPerChip * g.ChipsPerChannel)
}

// BlockAddr addresses one block in the device.
type BlockAddr struct {
	Plane PlaneID
	Block int
}

// String renders the address.
func (a BlockAddr) String() string { return fmt.Sprintf("p%d/b%d", a.Plane, a.Block) }

// PageAddr addresses one page in the device.
type PageAddr struct {
	BlockAddr
	Page int // page index within the block, in [0, PagesPerBlock)
}

// String renders the address.
func (a PageAddr) String() string { return fmt.Sprintf("p%d/b%d/pg%d", a.Plane, a.Block, a.Page) }
