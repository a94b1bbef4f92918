// Must-fire corpus for the `bad-allow` meta rule: directives naming an
// unknown rule, or carrying no written reason.

fn unknown_rule(xs: &[u32]) -> usize {
    // lint: allow(no-such-rule): the rule name is wrong //~ FIRE bad-allow
    xs.len()
}

fn retired_rule(xs: &[u32]) -> usize {
    // lint: allow(narrowing-cast): moved to clippy; the name is unknown now //~ FIRE bad-allow
    xs.len()
}

fn reasonless_metering_allow(xs: &[u32]) -> usize {
    xs.len() // lint: allow(unmetered-loop) //~ FIRE bad-allow
}

fn reasonless_worker_path_allow(xs: &[u32]) -> usize {
    xs.len() // lint: allow(panic-on-worker-path) //~ FIRE bad-allow
}
