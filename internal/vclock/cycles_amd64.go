package vclock

// rdtsc reads the timestamp counter (cycles_amd64.s).
func rdtsc() int64

func init() { cycles = rdtsc }
