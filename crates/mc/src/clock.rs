//! Vector clocks over model-thread ids.
//!
//! Every modeled thread carries a [`VClock`]; every store records the
//! writer's clock (its *release clock*) so loads can establish
//! happens-before edges. Clocks are fixed-size arrays — the checker caps
//! executions at [`MAX_THREADS`] threads, which is far above what an
//! exhaustive exploration can afford anyway.

/// Maximum number of model threads per execution (including the main
/// closure, which runs as thread 0).
pub const MAX_THREADS: usize = 8;

/// A fixed-width vector clock: one logical-time component per model thread.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct VClock {
    t: [u64; MAX_THREADS],
}

impl VClock {
    /// The zero clock (happens-before everything).
    pub const ZERO: VClock = VClock {
        t: [0; MAX_THREADS],
    };

    /// Component for thread `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.t[i]
    }

    /// Sets component `i` to `v`.
    #[inline]
    #[cfg_attr(
        not(test),
        allow(dead_code, reason = "only the unit tests set a component directly")
    )]
    pub fn set(&mut self, i: usize, v: u64) {
        self.t[i] = v;
    }

    /// Advances thread `i`'s own component by one and returns the new value.
    #[inline]
    pub fn tick(&mut self, i: usize) -> u64 {
        self.t[i] += 1;
        self.t[i]
    }

    /// Pointwise maximum (the join of the two clocks).
    #[inline]
    pub fn join(&mut self, other: &VClock) {
        for i in 0..MAX_THREADS {
            if other.t[i] > self.t[i] {
                self.t[i] = other.t[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VClock::ZERO;
        let mut b = VClock::ZERO;
        a.set(0, 3);
        a.set(1, 1);
        b.set(1, 5);
        a.join(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(1), 5);
        assert_eq!(a.get(2), 0);
    }

    #[test]
    fn tick_advances_own_component() {
        let mut a = VClock::ZERO;
        assert_eq!(a.tick(2), 1);
        assert_eq!(a.tick(2), 2);
        assert_eq!(a.get(2), 2);
        assert_eq!(a.get(0), 0);
    }
}
