// Must-fire corpus for `unmetered-loop`: loops in operator/driver
// bodies that never reach a Work budget poll (tick/count_row) within
// two call-graph hops.

struct Batch;

impl Scan {
    fn next_batch(&mut self) -> Option<Batch> {
        loop { //~ FIRE unmetered-loop
            if self.exhausted() {
                return None;
            }
        }
    }
}

fn batch_collect_all(op: &mut Scan) -> Vec<Batch> {
    let mut out = Vec::new();
    // `op.next_batch()` ticks inside, but a pull stage never takes
    // metering credit from the operators beneath it: the driver loop
    // itself must poll, or a starving operator starves the driver too.
    while let Some(b) = op.next_batch() { //~ FIRE unmetered-loop
        out.push(b);
    }
    out
}

fn batch_collect_distinct_topk(out: &mut Batch) -> bool {
    for slot in out.slots() { //~ FIRE unmetered-loop
        fill(slot);
    }
    true
}

fn fill(_slot: &mut Slot) {}

fn batch_distinct_topk(w: &Work) {
    // The poll exists, but three hops down — past the budget of
    // two.
    loop { //~ FIRE unmetered-loop
        one_hop(w);
    }
}

fn one_hop(w: &Work) {
    two_hops(w);
}

fn two_hops(w: &Work) {
    three_hops(w);
}

fn three_hops(w: &Work) {
    w.tick(1);
}
