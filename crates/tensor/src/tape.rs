//! The gradient [`Tape`]: caller-owned storage for everything a backward
//! pass needs, so the model itself can stay immutable.
//!
//! During a *recording* forward pass (`Layer::forward` in `usb-nn`, run
//! as a `Pass::Eval` or `Pass::Train` that carries the tape; a
//! `Pass::Infer` records nothing) each layer pushes one [`Frame`] holding
//! exactly what its gradient needs — an activation copy, an argmax table,
//! a shape, and in training mode the input its weight gradient needs or
//! batch norm's `x̂` — onto the tape, in traversal order. The matching backward pass
//! (`Layer::grad`) pops frames in reverse order, strict stack discipline,
//! so composites (sequential stacks, residual branches, squeeze-excite
//! blocks) nest without any bookkeeping beyond "pop what you pushed,
//! backwards". The model is only ever read: **one `&Network` serves every
//! thread**, each worker bringing its own tape (and
//! [`Workspace`](crate::Workspace) for arithmetic scratch).
//!
//! # Reuse contract
//!
//! Like the [`Workspace`](crate::Workspace) arena, a tape is built for hot
//! loops (every DeepFool step records and replays the whole network):
//!
//! * Consumed frames keep their buffers in a spare pool;
//!   [`Tape::begin`]/[`Tape::push`] hand them back out with lengths reset,
//!   so after one warm-up iteration a steady-state record→grad cycle
//!   performs **no heap allocation** in the tape.
//! * Frames are reused across *mismatched* recordings (a different model,
//!   a different batch size) without leaking: every `push` returns a frame
//!   whose `vals`/`extra`/`aux` are empty — recording layers append their
//!   own data and never observe a previous checkout's.
//! * `Clone` yields an **empty** tape, mirroring `Workspace`: recorded
//!   frames are transient, and anything that clones a holder of a tape
//!   must not duplicate dead activation buffers.
//!
//! A `Tape` is deliberately not shared between threads; each worker owns
//! one (`Send`, used behind `&mut`) for all the work it runs — an
//! inspection worker's every class, Alg. 1 and Alg. 2 alike — and the
//! algorithms borrow it (`tape: &mut Tape`) rather than build their own.

/// One layer's recorded backward state: an activation payload, an optional
/// secondary payload, and integer metadata (shapes, argmax tables).
///
/// Which fields a layer uses is the layer's own contract — a ReLU stores
/// its input in `vals`, a squeeze-excite block stores input in `vals` and
/// gate in `extra`, a max pool stores its input shape and argmax table in
/// `aux`, a convolution stores only its input shape. [`Tape::push`] always
/// returns all three empty.
#[derive(Debug, Default)]
pub struct Frame {
    /// Primary `f32` payload (usually a copy of the layer input or output).
    pub vals: Vec<f32>,
    /// Secondary `f32` payload (e.g. the squeeze-excite gate).
    pub extra: Vec<f32>,
    /// Integer metadata: shapes, argmax routing tables.
    pub aux: Vec<usize>,
}

impl Frame {
    fn clear(&mut self) {
        self.vals.clear();
        self.extra.clear();
        self.aux.clear();
    }

    fn capacity(&self) -> usize {
        self.vals.capacity() + self.extra.capacity()
    }
}

/// A stack of per-layer activation [`Frame`]s recorded by a recording
/// `Layer::forward` and consumed by `Layer::grad` (see the module docs for
/// the reuse contract).
#[derive(Debug, Default)]
pub struct Tape {
    /// Recorded frames awaiting the backward pass (push/pop stack).
    frames: Vec<Frame>,
    /// Consumed frames parked for reuse, newest first. Because `grad` pops
    /// (and parks) frames in reverse recording order, the *next* recording
    /// pops this stack in original recording order — each traversal
    /// position gets back the very buffer it used last iteration, so
    /// capacities match exactly and the steady state allocates nothing.
    spare: Vec<Frame>,
}

impl Clone for Tape {
    /// Cloning yields an **empty** tape: recorded frames are transient
    /// backward state, never part of a model's identity.
    fn clone(&self) -> Self {
        Tape::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Starts a fresh recording, parking any frames left over from an
    /// abandoned previous one (their buffers are reused, not freed).
    pub fn begin(&mut self) {
        // Drain in reverse so the next `push` sequence hands frames back in
        // original recording order (see the `spare` field docs).
        while let Some(f) = self.frames.pop() {
            self.spare.push(f);
        }
    }

    /// Pushes a new empty frame (buffers recycled from the spare pool when
    /// available) and returns it for the recording layer to fill.
    pub fn push(&mut self) -> &mut Frame {
        let mut frame = self.spare.pop().unwrap_or_default();
        frame.clear();
        self.frames.push(frame);
        self.frames.last_mut().expect("push: frame just added")
    }

    /// Pops the most recently recorded frame, transferring ownership to the
    /// caller (hand it back with [`Tape::recycle`] so its buffers are
    /// reused by the next recording).
    ///
    /// # Panics
    ///
    /// Panics if no frame is recorded — i.e. `grad` was called without a
    /// matching recording forward, or layers popped more than they pushed.
    pub fn pop(&mut self) -> Frame {
        self.frames
            .pop()
            .expect("Tape::pop: grad before a recording forward (tape is empty)")
    }

    /// Returns a consumed frame's buffers to the spare pool.
    pub fn recycle(&mut self, frame: Frame) {
        self.spare.push(frame);
    }

    /// Number of frames currently recorded and not yet consumed.
    pub fn recorded(&self) -> usize {
        self.frames.len()
    }

    /// Total `f32` capacity parked across recorded and spare frames
    /// (diagnostics: the tape's steady-state memory footprint).
    pub fn pooled_capacity(&self) -> usize {
        self.frames
            .iter()
            .chain(self.spare.iter())
            .map(Frame::capacity)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_is_lifo() {
        let mut tape = Tape::new();
        tape.begin();
        tape.push().aux.push(1);
        tape.push().aux.push(2);
        assert_eq!(tape.recorded(), 2);
        let b = tape.pop();
        assert_eq!(b.aux, [2]);
        let a = tape.pop();
        assert_eq!(a.aux, [1]);
        tape.recycle(b);
        tape.recycle(a);
        assert_eq!(tape.recorded(), 0);
    }

    #[test]
    fn frames_come_back_empty_after_reuse() {
        let mut tape = Tape::new();
        tape.begin();
        let f = tape.push();
        f.vals.extend_from_slice(&[1.0; 64]);
        f.extra.extend_from_slice(&[2.0; 8]);
        f.aux.extend_from_slice(&[3, 4, 5]);
        let f = tape.pop();
        tape.recycle(f);
        tape.begin();
        let f = tape.push();
        assert!(f.vals.is_empty() && f.extra.is_empty() && f.aux.is_empty());
        assert!(f.vals.capacity() >= 64, "capacity must be reused");
    }

    #[test]
    fn steady_state_preserves_per_position_capacity() {
        let mut tape = Tape::new();
        let sizes = [100usize, 7, 50];
        // Warm-up: record three frames of distinct sizes, then consume.
        tape.begin();
        for &s in &sizes {
            tape.push().vals.resize(s, 0.0);
        }
        for _ in 0..sizes.len() {
            let f = tape.pop();
            tape.recycle(f);
        }
        // Second iteration: each position must get a buffer that already
        // fits it (the same one as last time).
        tape.begin();
        for &s in &sizes {
            let f = tape.push();
            assert!(f.vals.capacity() >= s, "position lost its warm buffer");
            f.vals.resize(s, 0.0);
        }
    }

    #[test]
    fn begin_parks_abandoned_frames() {
        let mut tape = Tape::new();
        tape.begin();
        tape.push().vals.resize(32, 0.0);
        tape.push().vals.resize(16, 0.0);
        // Abandon the recording (e.g. a caller bailed before grad).
        tape.begin();
        assert_eq!(tape.recorded(), 0);
        // First push of the new recording reuses the first frame's buffer.
        let f = tape.push();
        assert!(f.vals.capacity() >= 32);
    }

    #[test]
    #[should_panic(expected = "grad before a recording forward")]
    fn pop_on_empty_tape_panics() {
        let mut tape = Tape::new();
        let _ = tape.pop();
    }

    #[test]
    fn clone_is_empty() {
        let mut tape = Tape::new();
        tape.push().vals.resize(128, 0.0);
        let cloned = tape.clone();
        assert_eq!(cloned.recorded(), 0);
        assert_eq!(cloned.pooled_capacity(), 0);
        assert_eq!(tape.recorded(), 1, "the original keeps its frames");
    }
}
