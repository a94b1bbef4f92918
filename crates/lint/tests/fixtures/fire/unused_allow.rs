// Must-fire corpus for the `unused-allow` meta rule: directives that
// suppress nothing.

fn nothing_to_suppress(xs: &[u32]) -> usize {
    // lint: allow(panic-on-worker-path): stale — the unwrap was refactored away //~ FIRE unused-allow
    xs.len()
}

fn worker_loop(m: Option<u32>) -> u32 {
    // lint: allow(unmetered-loop): there is no loop here, only an expect //~ FIRE unused-allow
    m.expect("suppressed by nothing") //~ FIRE panic-on-worker-path
}

fn stale_metering_allow(xs: &[u32]) -> usize {
    // lint: allow(unmetered-loop): stale — the loop ticks every row now //~ FIRE unused-allow
    xs.len()
}
