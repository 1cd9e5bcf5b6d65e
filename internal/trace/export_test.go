package trace

// WriteChromeRef exposes the reference Chrome export to the external
// tests, which run fleets (the fleet engine imports this package).
var WriteChromeRef = (*Recorder).writeChromeRef
