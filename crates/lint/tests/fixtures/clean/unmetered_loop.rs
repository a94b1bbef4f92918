// Must-NOT-fire corpus for `unmetered-loop`: direct polls, polls one
// and two call-graph hops away, loops outside metered fns, a justified
// allow, and test code.

struct Row;

impl Scan {
    fn next_batch(&mut self) -> Option<Row> {
        loop {
            self.w.tick(1);
            if self.exhausted() {
                return None;
            }
        }
    }
}

fn batch_collect_distinct_topk(w: &Work, out: &mut Batch) -> bool {
    for slot in out.slots() {
        w.count_row();
        fill(slot);
    }
    true
}

fn fill(_slot: &mut Slot) {}

fn batch_collect_all_budgeted(op: &mut Scan, w: &Work) -> Vec<Row> {
    let mut out = Vec::new();
    while let Some(r) = op.next_batch() {
        w.count_row();
        out.push(r);
    }
    out
}

fn batch_collect_all(op: &mut Scan, w: &Work) {
    // The poll is two hops away: pump -> meter -> tick.
    loop {
        if !pump(op, w) {
            break;
        }
    }
}

fn pump(op: &mut Scan, w: &Work) -> bool {
    meter(w);
    op.exhausted()
}

fn meter(w: &Work) {
    w.tick(8);
}

fn helper_outside_the_metered_set(xs: &[u32]) -> u64 {
    let mut acc = 0;
    for x in xs {
        acc += u64::from(*x);
    }
    acc
}

fn batch_distinct_topk(rows: &[Row]) {
    // lint: allow(unmetered-loop): bounded by rows.len(); no Work
    // handle is plumbed into this merge step
    for r in rows {
        keep(r);
    }
}

fn keep(_r: &Row) {}

#[cfg(test)]
mod tests {
    #[test]
    fn test_next_batch() {
        let mut n = 0;
        loop {
            n += 1;
            if n > 3 {
                break;
            }
        }
    }
}
