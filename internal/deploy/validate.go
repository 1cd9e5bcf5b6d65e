package deploy

import (
	"fmt"
	"math"
)

// Upper bounds of a home's counts. Each sits far above every household
// in the repo (Table 1 tops out at 3 users, 6 devices and 24 neighbor
// APs, the default fleet population at 40 APs), and each keeps one
// home's work bounded: the bin plan loops once per neighbor AP and a
// fleet's synthesis once per user. Devices only scale the client load,
// which saturates from ~65 devices.
const (
	maxUsers       = 1_000
	maxDevices     = 10_000
	maxNeighborAPs = 10_000
)

// Validate checks the home's counts and start hour. The error names the
// field by its scenario key and carries no package prefix: callers add
// theirs.
func (h HomeConfig) Validate() error {
	for _, c := range []struct {
		key    string
		v, max int
	}{
		{"users", h.Users, maxUsers},
		{"devices", h.Devices, maxDevices},
		{"neighbor_aps", h.NeighborAPs, maxNeighborAPs},
		{"start_hour", h.StartHour, 23},
	} {
		if c.v < 0 || c.v > c.max {
			return fmt.Errorf("%s = %d, need within [0, %d]", c.key, c.v, c.max)
		}
	}
	return nil
}

// maxBins bounds a home's logging bins: two years of the paper's 60 s
// bins, 728 times its 1,440-bin day. A bin holds ~100 bytes of plan and
// batch, so one home stays near 100 MB at the bound.
const maxBins = 1 << 20

// Validate checks the options as given: a zero field is a value here,
// not "unset", so resolve defaults first where zero means default. A
// run checks its options once, before its first home; RunBatch and
// RunBatchCoarse trust theirs. The error names the field and carries no
// package prefix: callers add theirs.
func (o Options) Validate() error {
	bins := o.bins()
	switch {
	case o.Window <= 0:
		return fmt.Errorf("non-positive window %v", o.Window)
	case o.BinWidth <= 0:
		return fmt.Errorf("non-positive bin width %v", o.BinWidth)
	case math.IsNaN(o.Hours) || math.IsInf(o.Hours, 0):
		return fmt.Errorf("non-finite horizon %vh", o.Hours)
	case o.Hours <= 0:
		return fmt.Errorf("non-positive horizon %.3gh", o.Hours)
	case bins < 1:
		return fmt.Errorf("horizon %.3gh is shorter than one %v bin", o.Hours, o.BinWidth)
	case bins >= maxBins+1:
		return fmt.Errorf("horizon %.3gh spans %.4g bins of %v, over the %d-bin limit", o.Hours, bins, o.BinWidth, maxBins)
	case math.IsNaN(o.SensorDistanceFt) || math.IsInf(o.SensorDistanceFt, 0):
		return fmt.Errorf("sensor distance %v ft, need a finite distance", o.SensorDistanceFt)
	case o.SensorDistanceFt <= 0:
		return fmt.Errorf("sensor distance %v ft, need > 0", o.SensorDistanceFt)
	}
	return nil
}
