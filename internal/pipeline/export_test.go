package pipeline

// SetScanEveryCycle turns the core into its every-cycle reference twin:
// with on set, issue and the policy's Tick run every cycle instead of
// sleeping while the window-change epoch is unchanged. Reset clears it.
func SetScanEveryCycle(c *Core, on bool) { c.scanEveryCycle = on }
