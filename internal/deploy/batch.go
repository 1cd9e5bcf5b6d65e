package deploy

// BinBatch is the struct-of-arrays form of one home's logging bins —
// the single kernel every run mode produces. The packet-level samples
// land in Occupancy first, then one link-budget-plus-surface loop fills
// SensorRate and NetHarvestedW for the whole batch
// (core.TempSensorDevice.EvaluateBatch), and the aggregate folds run
// over plain float64 columns. A BinBatch is reused across homes by the
// fleet workers; Reset re-dimensions it without reallocating in steady
// state.
type BinBatch struct {
	// Hour is each bin's local time of day.
	Hour []float64
	// Occupancy holds per-channel airtime fractions in [0, 1], indexed
	// in phy.PoWiFiChannels order.
	Occupancy [][3]float64
	// CumulativePct is the percentage sum across channels per bin.
	CumulativePct []float64
	// SensorRate is the sensor's update rate per bin (0 when it cannot
	// boot), filled by the batched evaluate stage.
	SensorRate []float64
	// NetHarvestedW is the sensor's net harvested power per bin.
	NetHarvestedW []float64
	// Simulated marks bins whose occupancy came from the packet-level
	// event simulation. The exact tier simulates every bin; the coarse
	// tier leaves proxied bins false.
	Simulated []bool
}

// Len returns the number of bins in the batch.
func (b *BinBatch) Len() int { return len(b.Hour) }

// Reset re-dimensions the batch to n bins, reusing backing arrays when
// they are large enough, and clears the Simulated marks.
func (b *BinBatch) Reset(n int) {
	b.Hour = resize(b.Hour, n)
	b.CumulativePct = resize(b.CumulativePct, n)
	b.SensorRate = resize(b.SensorRate, n)
	b.NetHarvestedW = resize(b.NetHarvestedW, n)
	if cap(b.Occupancy) < n {
		b.Occupancy = make([][3]float64, n)
	}
	b.Occupancy = b.Occupancy[:n]
	if cap(b.Simulated) < n {
		b.Simulated = make([]bool, n)
	}
	b.Simulated = b.Simulated[:n]
	for i := range b.Simulated {
		b.Simulated[i] = false
	}
}

// Sample returns bin i as a BinSample record, for per-bin consumers
// (the lifecycle ledger, the facade's iterator) that walk a finished
// batch.
func (b *BinBatch) Sample(i int) BinSample {
	return BinSample{
		Bin:           i,
		HourOfDay:     b.Hour[i],
		Occupancy:     b.Occupancy[i],
		CumulativePct: b.CumulativePct[i],
		SensorRate:    b.SensorRate[i],
		NetHarvestedW: b.NetHarvestedW[i],
	}
}

// HomeMeans is one home's per-bin means, the reduction both the fleet's
// per-home record and the facade's single-home report carry.
type HomeMeans struct {
	// CumulativePct is the mean cumulative occupancy percentage.
	CumulativePct float64
	// ChannelPct is the mean occupancy percentage per channel, in
	// phy.PoWiFiChannels order.
	ChannelPct [3]float64
	// BankedHarvestUW is the mean banked harvest (see
	// BinSample.BankedHarvestUW).
	BankedHarvestUW float64
	// SensorRate is the mean sensor update rate.
	SensorRate float64
	// SilentBins counts the bins whose sensor could not boot.
	SilentBins int
}

// Means folds the finished batch into the home's means, summing in bin
// order; an empty batch yields the zero value.
func (b *BinBatch) Means() HomeMeans {
	var m HomeMeans
	n := b.Len()
	if n == 0 {
		return m
	}
	for i := 0; i < n; i++ {
		s := b.Sample(i)
		m.CumulativePct += s.CumulativePct
		for c := range m.ChannelPct {
			m.ChannelPct[c] += s.Occupancy[c] * 100
		}
		m.BankedHarvestUW += s.BankedHarvestUW()
		m.SensorRate += s.SensorRate
		if s.SensorRate <= 0 {
			m.SilentBins++
		}
	}
	f := float64(n)
	m.CumulativePct /= f
	for c := range m.ChannelPct {
		m.ChannelPct[c] /= f
	}
	m.BankedHarvestUW /= f
	m.SensorRate /= f
	return m
}

// RunBatch simulates one home deployment into b: plan every bin's drive
// up front, run the packet-level sample per bin into the occupancy
// column, then evaluate the sensor chain over the whole batch in one
// link-budget-plus-surface loop. The simulation is deterministic in
// (cfg, opts) alone, and a pooled Sampler reproduces a fresh one bit
// for bit (the parity suite pins this against a per-bin reference).
//
// each, if non-nil, is called before each bin's packet-level sample
// with the bin index; returning false abandons the home mid-batch (the
// per-bin cancellation check of the fleet workers and the facade) and
// RunBatch reports false with b in an unspecified state. The Sampler
// remains reusable.
func (smp *Sampler) RunBatch(cfg HomeConfig, opts Options, b *BinBatch, each func(bin int) bool) bool {
	opts = smp.begin(cfg, opts, b)
	for bin := 0; bin < b.Len(); bin++ {
		if !smp.simulate(b, bin, each) {
			return false
		}
	}
	smp.evaluateBatch(opts, b)
	return true
}

// begin is the preamble RunBatch and RunBatchCoarse share: normalize
// the options, plan every bin's drive, arm the sensor's solver tier and
// the monitors' window, and size b to the home's bins with their hours
// filled in. It returns the normalized options.
func (smp *Sampler) begin(cfg HomeConfig, opts Options, b *BinBatch) Options {
	opts = opts.withDefaults()
	nBins := opts.NumBins()
	smp.planBins(cfg, opts, nBins)

	smp.sensor.Exact = opts.Exact
	for i := range smp.monitors {
		smp.monitors[i].BinWidth = opts.Window
	}

	b.Reset(nBins)
	copy(b.Hour, smp.plan.hour)
	return opts
}

// simulate is the per-bin step RunBatch and RunBatchCoarse share: it
// consults the gate, then runs the bin's planned packet-level sample
// into b's occupancy column and marks the bin simulated. It reports
// false, leaving the bin untouched, when the gate refuses.
func (smp *Sampler) simulate(b *BinBatch, bin int, each func(bin int) bool) bool {
	if each != nil && !each(bin) {
		return false
	}
	b.Occupancy[bin] = smp.sampleBin(smp.plan.seed*1_000_003+uint64(bin),
		smp.plan.clientLoad[bin], smp.plan.neighborLoad[bin], smp.plan.window)
	b.Simulated[bin] = true
	if smp.tr != nil {
		smp.tr.BinSimulated(bin, smp.sched.Scheduled())
	}
	return true
}

// evaluateBatch runs the batched evaluate stage over every bin of b:
// the cumulative-occupancy fold and the sensor chain's link-budget +
// operating-point solve, one loop per column. The per-channel RF budget
// is memoized across the batch (it depends only on the geometry), so
// the per-bin work is the surface lookup alone.
func (smp *Sampler) evaluateBatch(opts Options, b *BinBatch) {
	for i, occ := range b.Occupancy {
		cum := 0.0
		for _, v := range occ {
			cum += v * 100
		}
		b.CumulativePct[i] = cum
	}
	smp.sensor.EvaluateBatch(opts.SensorDistanceFt, b.Occupancy, b.SensorRate, b.NetHarvestedW)
}
