// Must-NOT-fire corpus for `panic-on-worker-path`: error propagation
// along the worker path, unreachable panics (owned by the crate-wide
// clippy::unwrap_used where a crate wants it), tricky spans, a
// justified allow, and test code.

fn worker_loop(jobs: &Queue) -> Result<(), ServeError> {
    while let Some(job) = jobs.pop() {
        dispatch(job)?;
    }
    Ok(())
}

fn dispatch(job: Job) -> Result<(), ServeError> {
    let plan = job.plan.ok_or(ServeError::NoPlan)?;
    run(plan)
}

fn run(plan: Plan) -> Result<(), ServeError> {
    let msg = "prose may say .unwrap() or panic!( inside a string";
    observe(msg.len(), plan)
}

fn observe(n: usize, _plan: Plan) -> Result<(), ServeError> {
    if n == 0 {
        return Err(ServeError::Empty);
    }
    Ok(())
}

fn off_path_helper(x: Option<u32>) -> u32 {
    // Unreachable from any worker entry; panic discipline here is
    // clippy::unwrap_used's job, not this rule's.
    x.unwrap()
}

fn process(job: Job) -> Result<u32, ServeError> {
    job.validate()?;
    // lint: allow(panic-on-worker-path): validate() just proved slots
    // is non-empty
    let v = job.slots.first().copied().unwrap();
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_worker_loop_may_unwrap() {
        let q = Queue::default();
        worker_loop(&q).unwrap();
    }
}
