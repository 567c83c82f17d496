//! Delta debugging: minimize a failing event stream.
//!
//! ddmin-flavoured: first try removing large chunks (half the script,
//! then quarters, …), then individual steps, re-testing the candidate
//! from a fresh scene each time. The result is 1-minimal — removing any
//! single remaining step makes the failure disappear — which in practice
//! reduces a 2000-step session to a handful of lines `runapp --script`
//! can replay. The steps are opaque to the shrinker, so the same
//! routine minimizes a plain script and a served interleaving of
//! `(session, step)` pairs.

use std::sync::Arc;

use atk_trace::Collector;

/// Minimizes `steps` while `still_fails` keeps returning `true`.
///
/// `still_fails` must re-run the candidate from scratch (the caller owns
/// scene construction); every candidate evaluation is counted on
/// `collector` as `check.shrink_rounds`.
pub fn minimize<T, F>(steps: &[T], collector: &Arc<Collector>, mut still_fails: F) -> Vec<T>
where
    T: Clone,
    F: FnMut(&[T]) -> bool,
{
    let mut current: Vec<T> = steps.to_vec();
    if current.is_empty() {
        return current;
    }
    // Chunk removal, halving the chunk size each pass.
    let mut chunk = current.len().div_ceil(2);
    loop {
        let mut i = 0;
        while i < current.len() {
            let end = (i + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - i));
            candidate.extend_from_slice(&current[..i]);
            candidate.extend_from_slice(&current[end..]);
            collector.count("check.shrink_rounds", 1);
            if still_fails(&candidate) {
                current = candidate;
                // The same index now holds the next chunk; don't advance.
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = chunk.div_ceil(2).min(chunk - 1).max(1);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_core::ScriptStep;
    use atk_graphics::Size;
    use atk_wm::WindowEvent;

    fn tick(ms: u64) -> ScriptStep {
        ScriptStep::Event(WindowEvent::Tick(ms))
    }

    #[test]
    fn minimizes_to_the_two_culprit_steps() {
        // 100 steps; the "bug" needs Tick(17) and Tick(23) both present.
        let mut steps: Vec<ScriptStep> = (0..100).map(|i| tick(1000 + i)).collect();
        steps[13] = tick(17);
        steps[71] = tick(23);
        let collector = Arc::new(Collector::new());
        collector.enable();
        let min = minimize(&steps, &collector, |cand| {
            cand.contains(&tick(17)) && cand.contains(&tick(23))
        });
        assert_eq!(min, vec![tick(17), tick(23)]);
        assert!(collector.snapshot().counter("check.shrink_rounds") > 0);
    }

    #[test]
    fn single_culprit_minimizes_to_one_step() {
        let mut steps: Vec<ScriptStep> = (0..64)
            .map(|_| ScriptStep::Event(WindowEvent::Resize(Size::new(300, 300))))
            .collect();
        steps[40] = tick(7);
        let collector = Arc::new(Collector::new());
        let min = minimize(&steps, &collector, |cand| cand.contains(&tick(7)));
        assert_eq!(min, vec![tick(7)]);
    }

    #[test]
    fn input_independent_failure_minimizes_to_empty() {
        let steps: Vec<ScriptStep> = (0..10).map(tick).collect();
        let collector = Arc::new(Collector::new());
        let min = minimize(&steps, &collector, |_| true);
        assert!(min.is_empty());
    }
}
