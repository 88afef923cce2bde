package loihi

// StochasticShiftRound right-shifts v by s, rounding up with probability
// equal to the discarded fraction (u supplies the random bits).
func StochasticShiftRound(v int64, s uint, u uint64) int64 {
	if s == 0 {
		return v
	}
	mask := int64(1)<<s - 1
	neg := v < 0
	if neg {
		v = -v
	}
	q := v >> s
	frac := v & mask
	if int64(u&uint64(mask)) < frac {
		q++
	}
	if neg {
		return -q
	}
	return q
}
