// Seam-lint fixture: a file outside sim/ that schedules a callable.
void timer(Simulator& sim) { sim.schedule_at(sim.now() + 5, [] {}); }
