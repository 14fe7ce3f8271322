package sim

import "time"

// Access is one batched request arrival on the virtual timeline: Requests
// embedding-entry accesses of one kind (a pull, or a push when Push is
// set) at instant At.
type Access struct {
	At       time.Duration
	Push     bool
	Requests int
}

// MsBucket is one millisecond of the Fig. 2 timeline.
type MsBucket struct {
	Ms     int
	Pulls  int
	Pushes int
}

// PerMillisecond buckets time-ordered accesses per virtual millisecond,
// the series Fig. 2 plots; idle milliseconds are zero buckets.
func PerMillisecond(accesses []Access) []MsBucket {
	if len(accesses) == 0 {
		return nil
	}
	buckets := make([]MsBucket, int(accesses[len(accesses)-1].At/time.Millisecond)+1)
	for i := range buckets {
		buckets[i].Ms = i
	}
	for _, a := range accesses {
		b := &buckets[int(a.At/time.Millisecond)]
		if a.Push {
			b.Pushes += a.Requests
		} else {
			b.Pulls += a.Requests
		}
	}
	return buckets
}

// PairCounts returns total pull and push accesses — equal totals are the
// paper's "burst I/O in pairs" observation.
func PairCounts(accesses []Access) (pulls, pushes int64) {
	for _, a := range accesses {
		if a.Push {
			pushes += int64(a.Requests)
		} else {
			pulls += int64(a.Requests)
		}
	}
	return pulls, pushes
}
