// Package serve (the directory name puts it in tgsync's checked set)
// seeds settle-rule violations for golife: a terminal finish call with
// no reachable jobSettled call — next to the clean, conditional, and
// annotated twins. The trigger and notify functions themselves are
// exempt by name.
package serve

type job struct {
	state string
	done  chan struct{}
}

// finish is the terminal transition; its name is in the rule's trigger
// list, so the rule does not police its own implementation.
func (j *job) finish(st string) {
	j.state = st
	close(j.done)
}

func (j *job) jobSettled() {}

// cancelOrphan finishes without settling: its spool entry would survive
// and a restart would run the finished job again.
func (j *job) cancelOrphan() {
	j.finish("canceled") // want "never settle"
}

// cancelClean settles after finishing: fine.
func (j *job) cancelClean() {
	j.finish("canceled")
	j.jobSettled()
}

// cancelMaybe settles conditionally; reachability is existential: fine.
func (j *job) cancelMaybe(notify bool) {
	j.finish("canceled")
	if notify {
		j.jobSettled()
	}
}

// cancelOwned is exempted by annotation.
func (j *job) cancelOwned() {
	//sync:owned this job is never spooled; there is no entry to settle
	j.finish("canceled")
}
