//! The interpreter: frames, threads, scheduling, and instruction semantics.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstudy_mir::{
    BasicBlock, BinOp, Body, Callee, Const, Intrinsic, Local, Operand, Place, Program, ProjElem,
    Rvalue, StatementKind, TerminatorKind, Ty, UnOp,
};

use crate::memory::{AllocId, AllocKind, Memory, MemoryFault};
use crate::outcome::{Fault, Outcome, TraceEvent};
use crate::race::LocksetDetector;
use crate::sync::{LockState, OnceState, SyncObject, SyncRegistry};
use crate::value::{GuardKind, Pointer, SyncId, ThreadId, Value};

/// How runnable threads are picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Cycle through runnable threads in id order.
    RoundRobin,
    /// Pick a random runnable thread each step, driven by the seed.
    Random(u64),
}

/// Interpreter options.
#[derive(Debug, Clone, Copy)]
pub struct InterpreterConfig {
    /// Hard step budget; exceeding it yields [`Fault::Timeout`].
    pub max_steps: u64,
    /// Scheduling policy.
    pub policy: SchedulePolicy,
    /// Whether the lockset race detector runs.
    pub detect_races: bool,
    /// Keep the last N executed steps in [`Outcome::trace`] (0 = off).
    pub trace_tail: usize,
}

impl Default for InterpreterConfig {
    fn default() -> Self {
        InterpreterConfig {
            max_steps: 1_000_000,
            policy: SchedulePolicy::RoundRobin,
            detect_races: true,
            trace_tail: 0,
        }
    }
}

/// Why a thread cannot run.
#[derive(Debug, Clone)]
enum BlockReason {
    /// Waiting to acquire a lock; on success the guard goes to the place.
    Lock(SyncId, GuardKind, Place, Option<BasicBlock>),
    /// Waiting inside `condvar::wait` to be notified (the condvar id is
    /// kept for diagnostics and future timeout support).
    CondvarWait(#[allow(dead_code)] SyncId),
    /// Waiting to receive from a channel.
    Recv(SyncId, Place, Option<BasicBlock>),
    /// Waiting to send a value into a full bounded channel.
    Send(SyncId, Value, Place, Option<BasicBlock>),
    /// Waiting for a thread to finish.
    Join(ThreadId, Place, Option<BasicBlock>),
    /// Waiting for a `Once` initializer on another thread.
    OnceWait(SyncId, Place, Option<BasicBlock>),
}

/// One call frame.
#[derive(Debug)]
struct Frame {
    function: String,
    /// Stack allocation per local; `None` before `StorageLive`.
    locals: Vec<Option<AllocId>>,
    block: BasicBlock,
    stmt: usize,
    /// Where the caller wants the return value, and where it resumes.
    dest: Option<(Place, Option<BasicBlock>)>,
    /// `Some(once)` if this frame is a `call_once` initializer.
    finishes_once: Option<SyncId>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked,
    Finished(Option<Value>),
}

struct Thread {
    id: ThreadId,
    frames: Vec<Frame>,
    state: ThreadState,
    block_reason: Option<BlockReason>,
    held_locks: BTreeSet<SyncId>,
}

/// The interpreter for one program.
pub struct Interpreter<'p> {
    program: &'p Program,
    config: InterpreterConfig,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter with default configuration.
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        Interpreter {
            program,
            config: InterpreterConfig::default(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: InterpreterConfig) -> Interpreter<'p> {
        self.config = config;
        self
    }

    /// Convenience: set only the scheduling seed (random policy).
    pub fn with_seed(mut self, seed: u64) -> Interpreter<'p> {
        self.config.policy = SchedulePolicy::Random(seed);
        self
    }

    /// Runs the program to completion (or fault).
    pub fn run(&self) -> Outcome {
        let _span = rstudy_telemetry::span("interp.run");
        let mut m = Machine::new(self.program, self.config);
        m.run()
    }
}

/// Result type for machine operations: `Err` is a fatal fault.
type MResult<T> = Result<T, Fault>;

struct Machine<'p> {
    program: &'p Program,
    config: InterpreterConfig,
    memory: Memory,
    sync: SyncRegistry,
    threads: Vec<Thread>,
    races: LocksetDetector,
    fn_names: Vec<String>,
    steps: u64,
    rng: StdRng,
    rr_cursor: usize,
    /// Where each condvar waiter's reacquired guard should be written.
    pending_wait: BTreeMap<ThreadId, (Place, Option<BasicBlock>)>,
    /// A fault raised while unblocking a thread, surfaced on the next tick.
    pending_fault: Option<Fault>,
    /// Ring buffer of the last `trace_tail` steps.
    trace: std::collections::VecDeque<TraceEvent>,
    /// Index of the thread scheduled on the previous tick.
    last_picked: Option<usize>,
    /// Times the scheduler switched away from the previous thread.
    ctx_switches: u64,
    /// Lock acquisitions/releases and thread spawns (flushed to telemetry).
    sync_events: u64,
}

impl<'p> Machine<'p> {
    fn new(program: &'p Program, config: InterpreterConfig) -> Machine<'p> {
        let fn_names: Vec<String> = program.iter().map(|(n, _)| n.to_owned()).collect();
        let seed = match config.policy {
            SchedulePolicy::Random(s) => s,
            SchedulePolicy::RoundRobin => 0,
        };
        Machine {
            program,
            config,
            memory: Memory::new(),
            sync: SyncRegistry::new(),
            threads: Vec::new(),
            races: LocksetDetector::new(),
            fn_names,
            steps: 0,
            rng: StdRng::seed_from_u64(seed),
            rr_cursor: 0,
            pending_wait: BTreeMap::new(),
            pending_fault: None,
            trace: Default::default(),
            last_picked: None,
            ctx_switches: 0,
            sync_events: 0,
        }
    }

    fn fn_id(&self, name: &str) -> Option<u32> {
        self.fn_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u32)
    }

    fn body(&self, name: &str) -> Option<&'p Body> {
        self.program.function(name)
    }

    // --- thread management -------------------------------------------------

    fn spawn_thread(&mut self, function: &str, args: Vec<Value>) -> MResult<ThreadId> {
        let body = self
            .body(function)
            .unwrap_or_else(|| panic!("spawn of undefined function `{function}`"));
        self.sync_events += 1;
        let id = ThreadId(self.threads.len() as u32);
        let mut frame = Frame {
            function: function.to_owned(),
            locals: vec![None; body.locals.len()],
            block: BasicBlock::ENTRY,
            stmt: 0,
            dest: None,
            finishes_once: None,
        };
        // Allocate the return place and arguments.
        let ret_size = body.local_decl(Local::RETURN).ty.size_cells();
        frame.locals[0] = Some(self.memory.allocate(ret_size, AllocKind::Stack));
        let arg_locals: Vec<Local> = body.args().collect();
        for (i, arg) in arg_locals.iter().enumerate() {
            let size = body.local_decl(*arg).ty.size_cells();
            let a = self.memory.allocate(size, AllocKind::Stack);
            if let Some(v) = args.get(i) {
                self.memory
                    .write(
                        Pointer {
                            alloc: a,
                            offset: 0,
                        },
                        *v,
                    )
                    .expect("fresh arg allocation");
            }
            frame.locals[arg.index()] = Some(a);
        }
        self.threads.push(Thread {
            id,
            frames: vec![frame],
            state: ThreadState::Runnable,
            block_reason: None,
            held_locks: BTreeSet::new(),
        });
        Ok(id)
    }

    // --- memory access with race monitoring --------------------------------

    fn read_cell(&mut self, tid: ThreadId, ptr: Pointer) -> MResult<Value> {
        if self.config.detect_races {
            let held = self.threads[tid.0 as usize].held_locks.clone();
            self.races.on_access(ptr, tid, &held, false);
        }
        self.memory.read(ptr).map_err(|m| Fault::Memory(tid, m))
    }

    fn write_cell(&mut self, tid: ThreadId, ptr: Pointer, v: Value) -> MResult<()> {
        if self.config.detect_races {
            let held = self.threads[tid.0 as usize].held_locks.clone();
            self.races.on_access(ptr, tid, &held, true);
        }
        self.memory.write(ptr, v).map_err(|m| Fault::Memory(tid, m))
    }

    // --- place and operand evaluation --------------------------------------

    /// Resolves a place to a pointer plus (when statically known) its type.
    fn eval_place(&mut self, tid: ThreadId, place: &Place) -> MResult<(Pointer, Option<Ty>)> {
        let frame = self.top_frame(tid);
        let body = self.body(&frame.function).expect("frame function exists");
        let mut ty = Some(body.local_decl(place.local).ty.clone());
        let alloc = frame.locals[place.local.index()].ok_or(Fault::Memory(
            tid,
            MemoryFault::UseAfterFree(Pointer {
                alloc: AllocId(u32::MAX),
                offset: 0,
            }),
        ))?;
        let mut ptr = Pointer { alloc, offset: 0 };
        let projection = place.projection.clone();
        for elem in &projection {
            match elem {
                ProjElem::Deref => {
                    let v = self.read_cell(tid, ptr)?;
                    match v {
                        Value::Ptr(p) => {
                            ptr = p;
                            ty = ty.as_ref().and_then(|t| t.pointee().cloned());
                        }
                        Value::Guard(id, _) => {
                            // Dereferencing a guard reaches the protected data.
                            let data = match self.sync.get(id) {
                                SyncObject::Lock { data, .. } => *data,
                                _ => unreachable!("guard of non-lock"),
                            };
                            ptr = Pointer {
                                alloc: data,
                                offset: 0,
                            };
                            ty = match ty {
                                Some(Ty::Guard(inner)) => Some(*inner),
                                _ => None,
                            };
                        }
                        Value::Arc(a) => {
                            // Cell 0 is the strong count; the value starts
                            // at cell 1.
                            ptr = Pointer {
                                alloc: a,
                                offset: 1,
                            };
                            ty = match ty {
                                Some(Ty::Arc(inner)) => Some(*inner),
                                _ => None,
                            };
                        }
                        Value::NullPtr => return Err(Fault::Memory(tid, MemoryFault::NullDeref)),
                        _ => return Err(Fault::Memory(tid, MemoryFault::NullDeref)),
                    }
                }
                ProjElem::Field(i) => {
                    let (off, new_ty) = match &ty {
                        Some(Ty::Tuple(elems)) => {
                            let off: u64 = elems.iter().take(*i as usize).map(Ty::size_cells).sum();
                            (off, elems.get(*i as usize).cloned())
                        }
                        _ => (*i as u64, None),
                    };
                    ptr.offset += off;
                    ty = new_ty;
                }
                ProjElem::ConstIndex(n) => {
                    let elem_size = match &ty {
                        Some(Ty::Array(e, _)) => e.size_cells(),
                        _ => 1,
                    };
                    ptr.offset += n * elem_size;
                    ty = match ty {
                        Some(Ty::Array(e, _)) => Some(*e),
                        other => other,
                    };
                }
                ProjElem::Index(l) => {
                    let idx_ptr = self.local_pointer(tid, *l)?;
                    let v = self.read_cell(tid, idx_ptr)?;
                    let idx = v.as_int().unwrap_or(0);
                    let elem_size = match &ty {
                        Some(Ty::Array(e, _)) => e.size_cells(),
                        _ => 1,
                    };
                    if idx < 0 {
                        return Err(Fault::Memory(tid, MemoryFault::OutOfBounds(ptr, 0)));
                    }
                    ptr.offset += idx as u64 * elem_size;
                    ty = match ty {
                        Some(Ty::Array(e, _)) => Some(*e),
                        other => other,
                    };
                }
            }
        }
        Ok((ptr, ty))
    }

    fn local_pointer(&mut self, tid: ThreadId, local: Local) -> MResult<Pointer> {
        let frame = self.top_frame(tid);
        let alloc = frame.locals[local.index()]
            .unwrap_or_else(|| panic!("{}: local {local} used before StorageLive", frame.function));
        Ok(Pointer { alloc, offset: 0 })
    }

    fn top_frame(&self, tid: ThreadId) -> &Frame {
        self.threads[tid.0 as usize]
            .frames
            .last()
            .expect("running thread has frames")
    }

    fn top_frame_mut(&mut self, tid: ThreadId) -> &mut Frame {
        self.threads[tid.0 as usize]
            .frames
            .last_mut()
            .expect("running thread has frames")
    }

    fn eval_operand(&mut self, tid: ThreadId, op: &Operand) -> MResult<Value> {
        match op {
            Operand::Const(c) => Ok(match c {
                Const::Unit => Value::Unit,
                Const::Bool(b) => Value::Int(i64::from(*b)),
                Const::Int(i) => Value::Int(*i),
                Const::Fn(name) => Value::Fn(
                    self.fn_id(name)
                        .unwrap_or_else(|| panic!("unknown function constant `{name}`")),
                ),
            }),
            Operand::Copy(place) => {
                let (ptr, _) = self.eval_place(tid, place)?;
                self.read_cell(tid, ptr)
            }
            Operand::Move(place) => {
                let (ptr, _) = self.eval_place(tid, place)?;
                let v = self.read_cell(tid, ptr)?;
                self.memory.clear(ptr).map_err(|m| Fault::Memory(tid, m))?;
                Ok(v)
            }
        }
    }

    fn eval_rvalue(&mut self, tid: ThreadId, rv: &Rvalue, dest_ty: Option<&Ty>) -> MResult<Value> {
        match rv {
            Rvalue::Use(op) => self.eval_operand(tid, op),
            Rvalue::Ref(_, place) | Rvalue::AddrOf(_, place) => {
                let (ptr, _) = self.eval_place(tid, place)?;
                Ok(Value::Ptr(ptr))
            }
            Rvalue::Cast(op, to_ty) => {
                let v = self.eval_operand(tid, op)?;
                Ok(match (v, to_ty) {
                    (Value::Int(0), Ty::RawPtr(..)) => Value::NullPtr,
                    (v, _) => v,
                })
            }
            Rvalue::UnaryOp(UnOp::Not, op) => {
                let v = self.eval_operand(tid, op)?;
                Ok(Value::Int(i64::from(!v.truthy())))
            }
            Rvalue::UnaryOp(UnOp::Neg, op) => {
                let v = self.eval_operand(tid, op)?;
                Ok(Value::Int(-v.as_int().unwrap_or(0)))
            }
            Rvalue::BinaryOp(op, a, b) => {
                let va = self.eval_operand(tid, a)?;
                let vb = self.eval_operand(tid, b)?;
                self.eval_binop(tid, *op, va, vb)
            }
            Rvalue::Len(place) => {
                let frame = self.top_frame(tid);
                let body = self.body(&frame.function).expect("frame function");
                let ty = &body.local_decl(place.local).ty;
                let len = match ty {
                    Ty::Array(_, n) => *n as i64,
                    _ => 0,
                };
                Ok(Value::Int(len))
            }
            Rvalue::Aggregate(_) => {
                // Aggregates are written element-wise by the caller; the
                // scalar value of an aggregate is its first element (or 0).
                let _ = dest_ty;
                Ok(Value::Int(0))
            }
        }
    }

    fn eval_binop(&mut self, _tid: ThreadId, op: BinOp, a: Value, b: Value) -> MResult<Value> {
        if op == BinOp::Offset {
            let base = a.as_ptr().unwrap_or(Pointer {
                alloc: AllocId(u32::MAX),
                offset: 0,
            });
            let k = b.as_int().unwrap_or(0);
            let offset = base.offset as i64 + k;
            return Ok(Value::Ptr(Pointer {
                alloc: base.alloc,
                offset: offset.max(i64::MIN + 1).unsigned_abs(),
            }));
        }
        // Pointer equality compares identity.
        if let (Value::Ptr(pa), Value::Ptr(pb)) = (a, b) {
            return Ok(match op {
                BinOp::Eq => Value::Int(i64::from(pa == pb)),
                BinOp::Ne => Value::Int(i64::from(pa != pb)),
                _ => Value::Int(0),
            });
        }
        let x = a.as_int().unwrap_or(0);
        let y = b.as_int().unwrap_or(0);
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            BinOp::Rem => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_rem(y)
                }
            }
            BinOp::Eq => i64::from(x == y),
            BinOp::Ne => i64::from(x != y),
            BinOp::Lt => i64::from(x < y),
            BinOp::Le => i64::from(x <= y),
            BinOp::Gt => i64::from(x > y),
            BinOp::Ge => i64::from(x >= y),
            BinOp::And => i64::from(x != 0 && y != 0),
            BinOp::Or => i64::from(x != 0 || y != 0),
            BinOp::Offset => unreachable!("handled above"),
        };
        Ok(Value::Int(r))
    }

    // --- drops and guards ----------------------------------------------------

    fn release_guard(&mut self, tid: ThreadId, id: SyncId, kind: GuardKind) {
        self.sync_events += 1;
        if let SyncObject::Lock { state, .. } = self.sync.get_mut(id) {
            match (state.clone(), kind) {
                (LockState::Exclusive(holder), _) if holder == tid => {
                    *state = LockState::Unlocked;
                }
                (LockState::Shared(mut readers), GuardKind::Read) => {
                    readers.retain(|&t| t != tid);
                    *state = if readers.is_empty() {
                        LockState::Unlocked
                    } else {
                        LockState::Shared(readers)
                    };
                }
                _ => {}
            }
        }
        let still_holds = matches!(
            self.sync.get(id),
            SyncObject::Lock {
                state: LockState::Exclusive(h),
                ..
            } if *h == tid
        ) || matches!(
            self.sync.get(id),
            SyncObject::Lock {
                state: LockState::Shared(rs),
                ..
            } if rs.contains(&tid)
        );
        if !still_holds {
            self.threads[tid.0 as usize].held_locks.remove(&id);
        }
    }

    /// Runs drop semantics for a value (releasing guards, decrementing
    /// reference counts).
    fn drop_value(&mut self, tid: ThreadId, v: Value) -> MResult<()> {
        match v {
            Value::Guard(id, kind) => {
                self.release_guard(tid, id, kind);
                Ok(())
            }
            Value::Arc(alloc) => {
                let count_cell = Pointer { alloc, offset: 0 };
                if !self.memory.is_live(alloc) {
                    // The last handle already freed the allocation: this
                    // handle was duplicated (e.g. by ptr::read).
                    return Err(Fault::Memory(tid, MemoryFault::DoubleDrop(count_cell)));
                }
                let count = self
                    .memory
                    .read(count_cell)
                    .map_err(|m| Fault::Memory(tid, m))?
                    .as_int()
                    .unwrap_or(0);
                if count <= 1 {
                    self.memory
                        .free(alloc, false)
                        .map_err(|m| Fault::Memory(tid, m))?;
                } else {
                    self.memory
                        .write(count_cell, Value::Int(count - 1))
                        .map_err(|m| Fault::Memory(tid, m))?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Drops the value held in a place: releases guards, clears the cells.
    fn drop_place(&mut self, tid: ThreadId, place: &Place) -> MResult<()> {
        let (ptr, ty) = self.eval_place(tid, place)?;
        let size = ty.as_ref().map(Ty::size_cells).unwrap_or(1);
        let mut any_value = false;
        for i in 0..size {
            let cell = Pointer {
                alloc: ptr.alloc,
                offset: ptr.offset + i,
            };
            match self.memory.read_maybe_uninit(cell) {
                Ok(Some(v)) => {
                    any_value = true;
                    self.drop_value(tid, v)?;
                    self.memory.clear(cell).map_err(|m| Fault::Memory(tid, m))?;
                }
                Ok(None) => {}
                Err(m) => return Err(Fault::Memory(tid, m)),
            }
        }
        let has_glue = matches!(
            ty,
            Some(
                Ty::Named(_)
                    | Ty::Mutex(_)
                    | Ty::RwLock(_)
                    | Ty::Guard(_)
                    | Ty::Channel(_)
                    | Ty::Arc(_)
            )
        );
        if !any_value && has_glue {
            return Err(Fault::Memory(tid, MemoryFault::DoubleDrop(ptr)));
        }
        Ok(())
    }

    /// Releases any guards stored in an allocation (run before StorageDead).
    fn release_guards_in(&mut self, tid: ThreadId, alloc: AllocId) {
        let guards: Vec<(SyncId, GuardKind)> = self
            .memory
            .get(alloc)
            .map(|a| {
                a.cells
                    .iter()
                    .filter_map(|c| match c {
                        Some(Value::Guard(id, kind)) => Some((*id, *kind)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (id, kind) in guards {
            self.release_guard(tid, id, kind);
        }
    }

    // --- the scheduler loop --------------------------------------------------

    fn run(&mut self) -> Outcome {
        let entry = self.program.entry().to_owned();
        let mut fault = None;
        if self.body(&entry).is_none() {
            panic!("entry function `{entry}` not defined");
        }
        self.spawn_thread(&entry, vec![]).expect("spawn main");

        loop {
            if self.steps >= self.config.max_steps {
                fault = Some(Fault::Timeout);
                break;
            }
            // Give blocked threads a chance to make progress.
            for i in 0..self.threads.len() {
                if self.threads[i].state == ThreadState::Blocked {
                    self.try_unblock(ThreadId(i as u32));
                }
            }
            if let Some(f) = self.pending_fault.take() {
                fault = Some(f);
                break;
            }
            // Main thread finishing ends the program.
            if let ThreadState::Finished(_) = self.threads[0].state {
                break;
            }
            let runnable: Vec<usize> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == ThreadState::Runnable)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                let blocked: Vec<ThreadId> = self
                    .threads
                    .iter()
                    .filter(|t| t.state == ThreadState::Blocked)
                    .map(|t| t.id)
                    .collect();
                if blocked.is_empty() {
                    break; // everything finished
                }
                fault = Some(Fault::Deadlock(blocked));
                break;
            }
            let pick = match self.config.policy {
                SchedulePolicy::RoundRobin => {
                    self.rr_cursor = (self.rr_cursor + 1) % runnable.len();
                    runnable[self.rr_cursor % runnable.len()]
                }
                SchedulePolicy::Random(_) => runnable[self.rng.gen_range(0..runnable.len())],
            };
            self.steps += 1;
            if self.last_picked.is_some_and(|prev| prev != pick) {
                self.ctx_switches += 1;
            }
            self.last_picked = Some(pick);
            if self.config.trace_tail > 0 {
                let tid = ThreadId(pick as u32);
                let frame = self.top_frame(tid);
                let event = TraceEvent {
                    thread: tid,
                    function: frame.function.clone(),
                    block: frame.block.0,
                    statement: frame.stmt,
                };
                if self.trace.len() == self.config.trace_tail {
                    self.trace.pop_front();
                }
                self.trace.push_back(event);
            }
            if let Err(f) = self.step(ThreadId(pick as u32)) {
                fault = Some(f);
                break;
            }
        }

        let return_value = match &self.threads.first().map(|t| &t.state) {
            Some(ThreadState::Finished(v)) => *v,
            _ => None,
        };
        // One flush per run keeps the registry lock off the step loop.
        if rstudy_telemetry::enabled() {
            rstudy_telemetry::counter("interp.runs", 1);
            rstudy_telemetry::counter("interp.context_switches", self.ctx_switches);
            rstudy_telemetry::counter("interp.sync_events", self.sync_events);
            rstudy_telemetry::record("interp.run.steps", self.steps);
            rstudy_telemetry::record("interp.run.threads", self.threads.len() as u64);
        }
        Outcome {
            return_value,
            fault,
            races: self.races.races().to_vec(),
            leaked_heap_blocks: self.memory.live_count(AllocKind::Heap),
            steps: self.steps,
            trace: self.trace.drain(..).collect(),
        }
    }

    /// Executes one statement or terminator of `tid`.
    fn step(&mut self, tid: ThreadId) -> MResult<()> {
        let frame = self.top_frame(tid);
        let body = self.body(&frame.function).expect("frame function");
        let block = body.block(frame.block);
        let stmt_index = frame.stmt;

        if stmt_index < block.statements.len() {
            let kind = block.statements[stmt_index].kind.clone();
            self.exec_statement(tid, &kind)?;
            self.top_frame_mut(tid).stmt += 1;
            return Ok(());
        }
        let term = block.terminator().kind.clone();
        self.exec_terminator(tid, term)
    }

    fn exec_statement(&mut self, tid: ThreadId, kind: &StatementKind) -> MResult<()> {
        match kind {
            StatementKind::Nop => Ok(()),
            StatementKind::StorageLive(l) => {
                let frame = self.top_frame(tid);
                let body = self.body(&frame.function).expect("frame function");
                let size = body.local_decl(*l).ty.size_cells();
                let a = self.memory.allocate(size, AllocKind::Stack);
                self.top_frame_mut(tid).locals[l.index()] = Some(a);
                Ok(())
            }
            StatementKind::StorageDead(l) => {
                let alloc = self.top_frame(tid).locals[l.index()];
                if let Some(a) = alloc {
                    self.release_guards_in(tid, a);
                    self.memory
                        .free(a, false)
                        .map_err(|m| Fault::Memory(tid, m))?;
                }
                Ok(())
            }
            StatementKind::Assign(place, rv) => {
                // Aggregates write element-wise.
                if let Rvalue::Aggregate(ops) = rv {
                    let (base, _) = self.eval_place(tid, place)?;
                    for (i, op) in ops.iter().enumerate() {
                        let v = self.eval_operand(tid, op)?;
                        self.write_cell(
                            tid,
                            Pointer {
                                alloc: base.alloc,
                                offset: base.offset + i as u64,
                            },
                            v,
                        )?;
                    }
                    return Ok(());
                }
                let (ptr, ty) = self.eval_place(tid, place)?;
                // Overwriting a place whose type has drop glue first drops
                // the old value — the paper's Fig. 6 invalid-free hinges on
                // this exact semantic.
                let has_glue = matches!(
                    ty,
                    Some(
                        Ty::Named(_)
                            | Ty::Mutex(_)
                            | Ty::RwLock(_)
                            | Ty::Guard(_)
                            | Ty::Channel(_)
                            | Ty::Arc(_)
                    )
                );
                if has_glue && place.has_deref() {
                    match self.memory.read_maybe_uninit(ptr) {
                        Ok(Some(old)) => self.drop_value(tid, old)?,
                        Ok(None) => return Err(Fault::Memory(tid, MemoryFault::DropOfUninit(ptr))),
                        Err(m) => return Err(Fault::Memory(tid, m)),
                    }
                }
                let v = self.eval_rvalue(tid, rv, ty.as_ref())?;
                self.write_cell(tid, ptr, v)
            }
        }
    }

    fn advance(&mut self, tid: ThreadId, target: Option<BasicBlock>) -> MResult<()> {
        match target {
            Some(bb) => {
                let frame = self.top_frame_mut(tid);
                frame.block = bb;
                frame.stmt = 0;
                Ok(())
            }
            None => {
                // Diverging call returned after all: treat as thread end.
                self.threads[tid.0 as usize].state = ThreadState::Finished(None);
                Ok(())
            }
        }
    }

    fn exec_terminator(&mut self, tid: ThreadId, term: TerminatorKind) -> MResult<()> {
        match term {
            TerminatorKind::Goto { target } => self.advance(tid, Some(target)),
            TerminatorKind::Return => self.do_return(tid),
            TerminatorKind::Unreachable => {
                panic!("{tid} reached an `unreachable` terminator")
            }
            TerminatorKind::SwitchInt {
                discr,
                targets,
                otherwise,
            } => {
                let v = self.eval_operand(tid, &discr)?;
                let x = v.as_int().unwrap_or(i64::from(v.truthy()));
                let target = targets
                    .iter()
                    .find(|(val, _)| *val == x)
                    .map(|(_, bb)| *bb)
                    .unwrap_or(otherwise);
                self.advance(tid, Some(target))
            }
            TerminatorKind::Drop { place, target } => {
                self.drop_place(tid, &place)?;
                self.advance(tid, Some(target))
            }
            TerminatorKind::Call {
                func,
                args,
                destination,
                target,
            } => match func {
                Callee::Fn(name) => self.call_function(tid, &name, &args, destination, target),
                Callee::Ptr(l) => {
                    let p = self.local_pointer(tid, l)?;
                    let v = self.read_cell(tid, p)?;
                    let Value::Fn(i) = v else {
                        panic!("indirect call through non-function value {v}");
                    };
                    let name = self.fn_names[i as usize].clone();
                    self.call_function(tid, &name, &args, destination, target)
                }
                Callee::Intrinsic(i) => self.call_intrinsic(tid, i, &args, destination, target),
            },
        }
    }

    fn call_function(
        &mut self,
        tid: ThreadId,
        name: &str,
        args: &[Operand],
        destination: Place,
        target: Option<BasicBlock>,
    ) -> MResult<()> {
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval_operand(tid, a)?);
        }
        self.call_value_function(tid, name, values, destination, target)
    }

    /// Pushes a frame for `name` with already-evaluated argument values.
    fn call_value_function(
        &mut self,
        tid: ThreadId,
        name: &str,
        values: Vec<Value>,
        destination: Place,
        target: Option<BasicBlock>,
    ) -> MResult<()> {
        let body = self
            .body(name)
            .unwrap_or_else(|| panic!("call to undefined function `{name}`"));
        let mut frame = Frame {
            function: name.to_owned(),
            locals: vec![None; body.locals.len()],
            block: BasicBlock::ENTRY,
            stmt: 0,
            dest: Some((destination, target)),
            finishes_once: None,
        };
        let ret_size = body.local_decl(Local::RETURN).ty.size_cells();
        frame.locals[0] = Some(self.memory.allocate(ret_size, AllocKind::Stack));
        let arg_locals: Vec<Local> = body.args().collect();
        for (i, arg) in arg_locals.iter().enumerate() {
            let size = body.local_decl(*arg).ty.size_cells();
            let a = self.memory.allocate(size, AllocKind::Stack);
            if let Some(v) = values.get(i) {
                self.memory
                    .write(
                        Pointer {
                            alloc: a,
                            offset: 0,
                        },
                        *v,
                    )
                    .expect("fresh arg allocation");
            }
            frame.locals[arg.index()] = Some(a);
        }
        self.threads[tid.0 as usize].frames.push(frame);
        Ok(())
    }

    fn do_return(&mut self, tid: ThreadId) -> MResult<()> {
        let frame = self.threads[tid.0 as usize]
            .frames
            .pop()
            .expect("return with a frame");
        let ret_alloc = frame.locals[0].expect("return place allocated");
        let ret_val = self
            .memory
            .read_maybe_uninit(Pointer {
                alloc: ret_alloc,
                offset: 0,
            })
            .ok()
            .flatten();
        if let Some(once) = frame.finishes_once {
            if let SyncObject::Once { state } = self.sync.get_mut(once) {
                *state = OnceState::Done;
            }
        }
        if self.threads[tid.0 as usize].frames.is_empty() {
            self.threads[tid.0 as usize].state = ThreadState::Finished(ret_val);
            return Ok(());
        }
        if let Some((dest, target)) = frame.dest {
            let (ptr, _) = self.eval_place(tid, &dest)?;
            self.write_cell(tid, ptr, ret_val.unwrap_or(Value::Unit))?;
            self.advance(tid, target)?;
        }
        Ok(())
    }

    // --- intrinsics ---------------------------------------------------------

    fn sync_id_of(&mut self, tid: ThreadId, op: &Operand) -> MResult<SyncId> {
        let v = self.eval_operand(tid, op)?;
        match v {
            Value::Sync(id) => Ok(id),
            Value::Ptr(p) => {
                let inner = self.read_cell(tid, p)?;
                match inner {
                    Value::Sync(id) => Ok(id),
                    other => panic!("expected sync object behind pointer, got {other}"),
                }
            }
            other => panic!("expected sync object, got {other}"),
        }
    }

    fn finish_call(
        &mut self,
        tid: ThreadId,
        destination: &Place,
        target: Option<BasicBlock>,
        value: Value,
    ) -> MResult<()> {
        let (ptr, _) = self.eval_place(tid, destination)?;
        self.write_cell(tid, ptr, value)?;
        self.advance(tid, target)
    }

    fn block_thread(&mut self, tid: ThreadId, reason: BlockReason) {
        let t = &mut self.threads[tid.0 as usize];
        t.state = ThreadState::Blocked;
        t.block_reason = Some(reason);
    }

    #[allow(clippy::too_many_lines)]
    fn call_intrinsic(
        &mut self,
        tid: ThreadId,
        intrinsic: Intrinsic,
        args: &[Operand],
        destination: Place,
        target: Option<BasicBlock>,
    ) -> MResult<()> {
        match intrinsic {
            Intrinsic::Alloc => {
                let n = self
                    .eval_operand(tid, &args[0])?
                    .as_int()
                    .unwrap_or(1)
                    .max(1);
                let a = self.memory.allocate(n as u64, AllocKind::Heap);
                self.finish_call(
                    tid,
                    &destination,
                    target,
                    Value::Ptr(Pointer {
                        alloc: a,
                        offset: 0,
                    }),
                )
            }
            Intrinsic::Dealloc => {
                let v = self.eval_operand(tid, &args[0])?;
                match v {
                    Value::Ptr(p) => {
                        self.memory
                            .free(p.alloc, true)
                            .map_err(|m| Fault::Memory(tid, m))?;
                    }
                    Value::NullPtr => return Err(Fault::Memory(tid, MemoryFault::NullDeref)),
                    _ => panic!("dealloc of non-pointer {v}"),
                }
                self.finish_call(tid, &destination, target, Value::Unit)
            }
            Intrinsic::PtrRead => {
                let v = self.eval_operand(tid, &args[0])?;
                let p = match v {
                    Value::Ptr(p) => p,
                    Value::NullPtr => return Err(Fault::Memory(tid, MemoryFault::NullDeref)),
                    other => panic!("ptr::read of non-pointer {other}"),
                };
                let read = self.read_cell(tid, p)?;
                self.finish_call(tid, &destination, target, read)
            }
            Intrinsic::PtrWrite => {
                let v = self.eval_operand(tid, &args[0])?;
                let p = match v {
                    Value::Ptr(p) => p,
                    Value::NullPtr => return Err(Fault::Memory(tid, MemoryFault::NullDeref)),
                    other => panic!("ptr::write to non-pointer {other}"),
                };
                let val = self.eval_operand(tid, &args[1])?;
                self.write_cell(tid, p, val)?;
                self.finish_call(tid, &destination, target, Value::Unit)
            }
            Intrinsic::PtrCopyNonoverlapping => {
                let src = self.eval_operand(tid, &args[0])?;
                let dst = self.eval_operand(tid, &args[1])?;
                let n = self.eval_operand(tid, &args[2])?.as_int().unwrap_or(0);
                let (Value::Ptr(s), Value::Ptr(d)) = (src, dst) else {
                    return Err(Fault::Memory(tid, MemoryFault::NullDeref));
                };
                for i in 0..n.max(0) as u64 {
                    let from = Pointer {
                        alloc: s.alloc,
                        offset: s.offset + i,
                    };
                    let to = Pointer {
                        alloc: d.alloc,
                        offset: d.offset + i,
                    };
                    let v = self
                        .memory
                        .read_maybe_uninit(from)
                        .map_err(|m| Fault::Memory(tid, m))?;
                    if let Some(v) = v {
                        self.write_cell(tid, to, v)?;
                    }
                }
                self.finish_call(tid, &destination, target, Value::Unit)
            }
            Intrinsic::MemDrop => {
                let v = self.eval_operand(tid, &args[0])?;
                self.drop_value(tid, v)?;
                self.finish_call(tid, &destination, target, Value::Unit)
            }
            Intrinsic::MemForget => {
                let _ = self.eval_operand(tid, &args[0])?;
                self.finish_call(tid, &destination, target, Value::Unit)
            }
            Intrinsic::MemUninitialized => {
                let (ptr, _) = self.eval_place(tid, &destination)?;
                self.memory.clear(ptr).map_err(|m| Fault::Memory(tid, m))?;
                self.advance(tid, target)
            }
            Intrinsic::MutexNew | Intrinsic::RwLockNew => {
                let v = self.eval_operand(tid, &args[0])?;
                let data = self.memory.allocate(1, AllocKind::Sync);
                self.memory
                    .write(
                        Pointer {
                            alloc: data,
                            offset: 0,
                        },
                        v,
                    )
                    .expect("fresh sync allocation");
                let id = self.sync.insert(SyncObject::Lock {
                    state: LockState::Unlocked,
                    data,
                    is_rwlock: intrinsic == Intrinsic::RwLockNew,
                });
                self.finish_call(tid, &destination, target, Value::Sync(id))
            }
            Intrinsic::MutexLock | Intrinsic::RwLockRead | Intrinsic::RwLockWrite => {
                let id = self.sync_id_of(tid, &args[0])?;
                let kind = match intrinsic {
                    Intrinsic::MutexLock => GuardKind::Mutex,
                    Intrinsic::RwLockRead => GuardKind::Read,
                    _ => GuardKind::Write,
                };
                self.acquire_or_block(tid, id, kind, destination, target)
            }
            Intrinsic::CondvarNew => {
                let id = self.sync.insert(SyncObject::Condvar { waiters: vec![] });
                self.finish_call(tid, &destination, target, Value::Sync(id))
            }
            Intrinsic::CondvarWait => {
                let cv = self.sync_id_of(tid, &args[0])?;
                let guard = self.eval_operand(tid, &args[1])?;
                let Value::Guard(lock, kind) = guard else {
                    panic!("condvar::wait without a guard, got {guard}");
                };
                self.release_guard(tid, lock, kind);
                if let SyncObject::Condvar { waiters } = self.sync.get_mut(cv) {
                    waiters.push((tid, lock));
                }
                // Once notified, the thread must reacquire the lock; stash
                // where the reacquired guard goes.
                self.block_thread(tid, BlockReason::CondvarWait(cv));
                self.pending_wait.insert(tid, (destination, target));
                Ok(())
            }
            Intrinsic::CondvarNotifyOne | Intrinsic::CondvarNotifyAll => {
                let cv = self.sync_id_of(tid, &args[0])?;
                let all = intrinsic == Intrinsic::CondvarNotifyAll;
                let woken: Vec<(ThreadId, SyncId)> =
                    if let SyncObject::Condvar { waiters } = self.sync.get_mut(cv) {
                        if all {
                            std::mem::take(waiters)
                        } else if waiters.is_empty() {
                            vec![]
                        } else {
                            vec![waiters.remove(0)]
                        }
                    } else {
                        vec![]
                    };
                for (t, lock) in woken {
                    let (dest, tgt) = self.pending_wait.remove(&t).expect("waiter stash");
                    self.threads[t.0 as usize].block_reason =
                        Some(BlockReason::Lock(lock, GuardKind::Mutex, dest, tgt));
                }
                self.finish_call(tid, &destination, target, Value::Unit)
            }
            Intrinsic::ChannelUnbounded | Intrinsic::ChannelBounded => {
                let capacity = if intrinsic == Intrinsic::ChannelBounded {
                    Some(
                        self.eval_operand(tid, &args[0])?
                            .as_int()
                            .unwrap_or(0)
                            .max(0) as usize,
                    )
                } else {
                    None
                };
                let id = self.sync.insert(SyncObject::Channel {
                    queue: Default::default(),
                    capacity,
                });
                self.finish_call(tid, &destination, target, Value::Sync(id))
            }
            Intrinsic::ChannelSend => {
                let ch = self.sync_id_of(tid, &args[0])?;
                let v = self.eval_operand(tid, &args[1])?;
                let full = match self.sync.get(ch) {
                    SyncObject::Channel { queue, capacity } => {
                        capacity.is_some_and(|c| queue.len() >= c)
                    }
                    _ => false,
                };
                if full {
                    self.block_thread(tid, BlockReason::Send(ch, v, destination, target));
                    return Ok(());
                }
                if let SyncObject::Channel { queue, .. } = self.sync.get_mut(ch) {
                    queue.push_back(v);
                }
                self.finish_call(tid, &destination, target, Value::Unit)
            }
            Intrinsic::ChannelRecv => {
                let ch = self.sync_id_of(tid, &args[0])?;
                let popped = match self.sync.get_mut(ch) {
                    SyncObject::Channel { queue, .. } => queue.pop_front(),
                    _ => None,
                };
                match popped {
                    Some(v) => self.finish_call(tid, &destination, target, v),
                    None => {
                        self.block_thread(tid, BlockReason::Recv(ch, destination, target));
                        Ok(())
                    }
                }
            }
            Intrinsic::OnceNew => {
                let id = self.sync.insert(SyncObject::Once {
                    state: OnceState::Fresh,
                });
                self.finish_call(tid, &destination, target, Value::Sync(id))
            }
            Intrinsic::OnceCallOnce => {
                let id = self.sync_id_of(tid, &args[0])?;
                let f = self.eval_operand(tid, &args[1])?;
                let state = match self.sync.get(id) {
                    SyncObject::Once { state } => *state,
                    _ => panic!("call_once on non-Once"),
                };
                match state {
                    OnceState::Done => self.finish_call(tid, &destination, target, Value::Unit),
                    OnceState::Running(holder) if holder == tid => Err(Fault::RecursiveOnce(tid)),
                    OnceState::Running(_) => {
                        self.block_thread(tid, BlockReason::OnceWait(id, destination, target));
                        Ok(())
                    }
                    OnceState::Fresh => {
                        if let SyncObject::Once { state } = self.sync.get_mut(id) {
                            *state = OnceState::Running(tid);
                        }
                        let Value::Fn(i) = f else {
                            panic!("call_once initializer is not a function: {f}");
                        };
                        let name = self.fn_names[i as usize].clone();
                        // Initializers may take the Once itself as their
                        // single argument (how real closures capture it).
                        let takes_once = self.body(&name).is_some_and(|b| b.arg_count >= 1);
                        if takes_once {
                            self.call_value_function(
                                tid,
                                &name,
                                vec![Value::Sync(id)],
                                destination,
                                target,
                            )?;
                        } else {
                            self.call_function(tid, &name, &[], destination, target)?;
                        }
                        self.top_frame_mut(tid).finishes_once = Some(id);
                        Ok(())
                    }
                }
            }
            Intrinsic::AtomicNew => {
                let v = self.eval_operand(tid, &args[0])?.as_int().unwrap_or(0);
                let id = self.sync.insert(SyncObject::Atomic { value: v });
                self.finish_call(tid, &destination, target, Value::Sync(id))
            }
            Intrinsic::AtomicLoad => {
                let id = self.sync_id_of(tid, &args[0])?;
                let v = match self.sync.get(id) {
                    SyncObject::Atomic { value } => *value,
                    _ => panic!("atomic op on non-atomic"),
                };
                self.finish_call(tid, &destination, target, Value::Int(v))
            }
            Intrinsic::AtomicStore => {
                let id = self.sync_id_of(tid, &args[0])?;
                let v = self.eval_operand(tid, &args[1])?.as_int().unwrap_or(0);
                if let SyncObject::Atomic { value } = self.sync.get_mut(id) {
                    *value = v;
                }
                self.finish_call(tid, &destination, target, Value::Unit)
            }
            Intrinsic::AtomicCas => {
                let id = self.sync_id_of(tid, &args[0])?;
                let old = self.eval_operand(tid, &args[1])?.as_int().unwrap_or(0);
                let new = self.eval_operand(tid, &args[2])?.as_int().unwrap_or(0);
                let prev = match self.sync.get_mut(id) {
                    SyncObject::Atomic { value } => {
                        let prev = *value;
                        if prev == old {
                            *value = new;
                        }
                        prev
                    }
                    _ => panic!("atomic op on non-atomic"),
                };
                self.finish_call(tid, &destination, target, Value::Int(prev))
            }
            Intrinsic::AtomicFetchAdd => {
                let id = self.sync_id_of(tid, &args[0])?;
                let add = self.eval_operand(tid, &args[1])?.as_int().unwrap_or(0);
                let prev = match self.sync.get_mut(id) {
                    SyncObject::Atomic { value } => {
                        let prev = *value;
                        *value = value.wrapping_add(add);
                        prev
                    }
                    _ => panic!("atomic op on non-atomic"),
                };
                self.finish_call(tid, &destination, target, Value::Int(prev))
            }
            Intrinsic::ArcNew => {
                let v = self.eval_operand(tid, &args[0])?;
                let alloc = self.memory.allocate(2, AllocKind::Sync);
                self.memory
                    .write(Pointer { alloc, offset: 0 }, Value::Int(1))
                    .expect("fresh arc allocation");
                self.memory
                    .write(Pointer { alloc, offset: 1 }, v)
                    .expect("fresh arc allocation");
                self.finish_call(tid, &destination, target, Value::Arc(alloc))
            }
            Intrinsic::ArcClone => {
                let v = self.eval_operand(tid, &args[0])?;
                let handle = match v {
                    Value::Arc(a) => a,
                    Value::Ptr(p) => match self.read_cell(tid, p)? {
                        Value::Arc(a) => a,
                        other => panic!("arc::clone of non-arc {other}"),
                    },
                    other => panic!("arc::clone of non-arc {other}"),
                };
                let count_cell = Pointer {
                    alloc: handle,
                    offset: 0,
                };
                let count = self
                    .memory
                    .read(count_cell)
                    .map_err(|m| Fault::Memory(tid, m))?
                    .as_int()
                    .unwrap_or(0);
                self.memory
                    .write(count_cell, Value::Int(count + 1))
                    .map_err(|m| Fault::Memory(tid, m))?;
                self.finish_call(tid, &destination, target, Value::Arc(handle))
            }
            Intrinsic::ThreadSpawn => {
                let f = self.eval_operand(tid, &args[0])?;
                let Value::Fn(i) = f else {
                    panic!("thread::spawn of non-function {f}");
                };
                let name = self.fn_names[i as usize].clone();
                let mut vals = Vec::new();
                if let Some(a) = args.get(1) {
                    vals.push(self.eval_operand(tid, a)?);
                }
                let new_tid = self.spawn_thread(&name, vals)?;
                self.finish_call(tid, &destination, target, Value::Thread(new_tid))
            }
            Intrinsic::ThreadJoin => {
                let v = self.eval_operand(tid, &args[0])?;
                let Value::Thread(t) = v else {
                    panic!("join of non-handle {v}");
                };
                match &self.threads[t.0 as usize].state {
                    ThreadState::Finished(rv) => {
                        let rv = rv.unwrap_or(Value::Unit);
                        self.finish_call(tid, &destination, target, rv)
                    }
                    _ => {
                        self.block_thread(tid, BlockReason::Join(t, destination, target));
                        Ok(())
                    }
                }
            }
            Intrinsic::ThreadYield => self.finish_call(tid, &destination, target, Value::Unit),
            Intrinsic::Abort => Err(Fault::Abort(tid)),
            Intrinsic::ExternCall => self.finish_call(tid, &destination, target, Value::Int(0)),
        }
    }

    fn acquire_or_block(
        &mut self,
        tid: ThreadId,
        id: SyncId,
        kind: GuardKind,
        destination: Place,
        target: Option<BasicBlock>,
    ) -> MResult<()> {
        match self.try_acquire(tid, id, kind) {
            Ok(true) => self.finish_call(tid, &destination, target, Value::Guard(id, kind)),
            Ok(false) => {
                self.block_thread(tid, BlockReason::Lock(id, kind, destination, target));
                Ok(())
            }
            Err(f) => Err(f),
        }
    }

    /// Attempts a lock acquisition; `Ok(true)` on success, `Ok(false)` when
    /// it must wait, `Err` on self-deadlock.
    fn try_acquire(&mut self, tid: ThreadId, id: SyncId, kind: GuardKind) -> MResult<bool> {
        let SyncObject::Lock { state, .. } = self.sync.get_mut(id) else {
            panic!("lock operation on non-lock");
        };
        match (state.clone(), kind) {
            (LockState::Unlocked, GuardKind::Read) => {
                *state = LockState::Shared(vec![tid]);
            }
            (LockState::Unlocked, _) => {
                *state = LockState::Exclusive(tid);
            }
            (LockState::Shared(mut readers), GuardKind::Read) => {
                // Re-reading while already holding is allowed by std's
                // RwLock on many platforms but can deadlock; we allow it to
                // keep read/read clean, matching the static detector.
                readers.push(tid);
                *state = LockState::Shared(readers);
            }
            (LockState::Shared(readers), _) if readers.contains(&tid) => {
                // Upgrading read -> write on the same thread: deadlock.
                return Err(Fault::SelfDeadlock(tid));
            }
            (LockState::Exclusive(holder), _) if holder == tid => {
                // The study's double lock, caught at runtime.
                return Err(Fault::SelfDeadlock(tid));
            }
            _ => return Ok(false),
        }
        self.sync_events += 1;
        self.threads[tid.0 as usize].held_locks.insert(id);
        Ok(true)
    }

    /// Re-checks a blocked thread's wait condition.
    fn try_unblock(&mut self, tid: ThreadId) {
        let reason = self.threads[tid.0 as usize].block_reason.clone();
        let Some(reason) = reason else { return };
        let outcome: MResult<bool> = match reason {
            BlockReason::Lock(id, kind, dest, target) => match self.try_acquire(tid, id, kind) {
                Ok(true) => {
                    self.threads[tid.0 as usize].state = ThreadState::Runnable;
                    self.threads[tid.0 as usize].block_reason = None;
                    self.finish_call(tid, &dest, target, Value::Guard(id, kind))
                        .map(|_| true)
                }
                Ok(false) => Ok(false),
                Err(f) => Err(f),
            },
            BlockReason::CondvarWait(_) => Ok(false), // woken by notify only
            BlockReason::Recv(ch, dest, target) => {
                let popped = match self.sync.get_mut(ch) {
                    SyncObject::Channel { queue, .. } => queue.pop_front(),
                    _ => None,
                };
                match popped {
                    Some(v) => {
                        self.threads[tid.0 as usize].state = ThreadState::Runnable;
                        self.threads[tid.0 as usize].block_reason = None;
                        self.finish_call(tid, &dest, target, v).map(|_| true)
                    }
                    None => Ok(false),
                }
            }
            BlockReason::Send(ch, v, dest, target) => {
                let can = match self.sync.get(ch) {
                    SyncObject::Channel { queue, capacity } => {
                        !capacity.is_some_and(|c| queue.len() >= c)
                    }
                    _ => false,
                };
                if can {
                    if let SyncObject::Channel { queue, .. } = self.sync.get_mut(ch) {
                        queue.push_back(v);
                    }
                    self.threads[tid.0 as usize].state = ThreadState::Runnable;
                    self.threads[tid.0 as usize].block_reason = None;
                    self.finish_call(tid, &dest, target, Value::Unit)
                        .map(|_| true)
                } else {
                    Ok(false)
                }
            }
            BlockReason::Join(t, dest, target) => match self.threads[t.0 as usize].state.clone() {
                ThreadState::Finished(rv) => {
                    self.threads[tid.0 as usize].state = ThreadState::Runnable;
                    self.threads[tid.0 as usize].block_reason = None;
                    self.finish_call(tid, &dest, target, rv.unwrap_or(Value::Unit))
                        .map(|_| true)
                }
                _ => Ok(false),
            },
            BlockReason::OnceWait(id, dest, target) => {
                let done = matches!(
                    self.sync.get(id),
                    SyncObject::Once {
                        state: OnceState::Done
                    }
                );
                if done {
                    self.threads[tid.0 as usize].state = ThreadState::Runnable;
                    self.threads[tid.0 as usize].block_reason = None;
                    self.finish_call(tid, &dest, target, Value::Unit)
                        .map(|_| true)
                } else {
                    Ok(false)
                }
            }
        };
        if let Err(f) = outcome {
            // A fault while unblocking is fatal: surface it by marking the
            // thread finished and recording via panic-free channel — the
            // main loop can't see it here, so store and re-raise on next
            // step of this thread. Simplest correct behaviour: park the
            // fault.
            self.pending_fault.get_or_insert(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::parse::parse_program;

    fn run_src(src: &str) -> Outcome {
        let program = parse_program(src).expect("parse");
        Interpreter::new(&program).run()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as i: int;
    let _2 as acc: int;

    bb0: {
        StorageLive(_1);
        _1 = const 0;
        StorageLive(_2);
        _2 = const 0;
        goto -> bb1;
    }

    bb1: {
        switchInt(_1) -> [5: bb3, otherwise: bb2];
    }

    bb2: {
        _2 = _2 + _1;
        _1 = _1 + const 1;
        goto -> bb1;
    }

    bb3: {
        _0 = move _2;
        StorageDead(_2);
        StorageDead(_1);
        return;
    }
}
"#,
        );
        assert!(out.is_clean(), "{out:?}");
        assert_eq!(out.return_int(), Some(10)); // 0+1+2+3+4
    }

    #[test]
    fn function_calls_pass_values() {
        let out = run_src(
            r#"
fn double(_1 as x: int) -> int {
    bb0: {
        _0 = _1 + _1;
        return;
    }
}

fn main() -> int {
    bb0: {
        _0 = call double(const 21) -> bb1;
    }

    bb1: {
        return;
    }
}
"#,
        );
        assert_eq!(out.return_int(), Some(42));
    }

    #[test]
    fn use_after_free_faults() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as x: int;
    let _2 as p: *mut int;

    bb0: {
        StorageLive(_1);
        _1 = const 7;
        StorageLive(_2);
        _2 = &raw mut _1;
        StorageDead(_1);
        unsafe _0 = (*_2);
        return;
    }
}
"#,
        );
        assert!(matches!(
            out.memory_fault(),
            Some(MemoryFault::UseAfterFree(_))
        ));
    }

    #[test]
    fn heap_double_free_faults() {
        let out = run_src(
            r#"
fn main() -> unit {
    let _1 as p: *mut int;
    let _2: unit;

    bb0: {
        StorageLive(_1);
        StorageLive(_2);
        _1 = call alloc(const 1) -> bb1;
    }

    bb1: {
        _2 = call dealloc(_1) -> bb2;
    }

    bb2: {
        _2 = call dealloc(_1) -> bb3;
    }

    bb3: {
        return;
    }
}
"#,
        );
        assert!(matches!(
            out.memory_fault(),
            Some(MemoryFault::DoubleFree(_))
        ));
    }

    #[test]
    fn uninit_read_faults() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as x: int;

    bb0: {
        StorageLive(_1);
        _0 = _1;
        return;
    }
}
"#,
        );
        assert!(matches!(
            out.memory_fault(),
            Some(MemoryFault::UninitRead(_))
        ));
    }

    #[test]
    fn out_of_bounds_faults() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as a: [int; 2];
    let _2 as p: *mut int;
    let _3 as q: *mut int;

    bb0: {
        StorageLive(_1);
        _1 = [const 1, const 2];
        StorageLive(_2);
        _2 = &raw mut _1;
        StorageLive(_3);
        unsafe _3 = _2 offset const 2;
        unsafe _0 = (*_3);
        return;
    }
}
"#,
        );
        assert!(matches!(
            out.memory_fault(),
            Some(MemoryFault::OutOfBounds(..))
        ));
    }

    #[test]
    fn null_deref_faults() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as p: *mut int;

    bb0: {
        StorageLive(_1);
        _1 = const 0 as *mut int;
        unsafe _0 = (*_1);
        return;
    }
}
"#,
        );
        assert!(matches!(out.memory_fault(), Some(MemoryFault::NullDeref)));
    }

    #[test]
    fn mutex_protects_and_guard_releases() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as m: Mutex<int>;
    let _2 as r: &Mutex<int>;
    let _3 as g: Guard<int>;

    bb0: {
        StorageLive(_1);
        _1 = call mutex::new(const 5) -> bb1;
    }

    bb1: {
        StorageLive(_2);
        _2 = &_1;
        StorageLive(_3);
        _3 = call mutex::lock(_2) -> bb2;
    }

    bb2: {
        (*_3) = const 6;
        _0 = (*_3);
        StorageDead(_3);
        StorageDead(_2);
        StorageDead(_1);
        return;
    }
}
"#,
        );
        assert!(out.is_clean(), "{out:?}");
        assert_eq!(out.return_int(), Some(6));
    }

    #[test]
    fn double_lock_self_deadlocks() {
        let out = run_src(
            r#"
fn main() -> unit {
    let _1 as m: Mutex<int>;
    let _2 as r: &Mutex<int>;
    let _3 as g1: Guard<int>;
    let _4 as g2: Guard<int>;

    bb0: {
        StorageLive(_1);
        _1 = call mutex::new(const 0) -> bb1;
    }

    bb1: {
        StorageLive(_2);
        _2 = &_1;
        StorageLive(_3);
        _3 = call mutex::lock(_2) -> bb2;
    }

    bb2: {
        StorageLive(_4);
        _4 = call mutex::lock(_2) -> bb3;
    }

    bb3: {
        return;
    }
}
"#,
        );
        assert!(out.deadlocked(), "{out:?}");
    }

    #[test]
    fn threads_and_join() {
        let out = run_src(
            r#"
fn worker(_1 as x: int) -> int {
    bb0: {
        _0 = _1 * const 3;
        return;
    }
}

fn main() -> int {
    let _1 as h: JoinHandle<int>;

    bb0: {
        StorageLive(_1);
        _1 = call thread::spawn(const fn worker, const 14) -> bb1;
    }

    bb1: {
        _0 = call thread::join(_1) -> bb2;
    }

    bb2: {
        return;
    }
}
"#,
        );
        assert!(out.fault.is_none(), "{out:?}");
        assert_eq!(out.return_int(), Some(42));
    }

    #[test]
    fn channels_carry_values() {
        let out = run_src(
            r#"
fn producer(_1 as ch: Channel<int>) -> unit {
    let _2: unit;

    bb0: {
        StorageLive(_2);
        _2 = call channel::send(_1, const 99) -> bb1;
    }

    bb1: {
        return;
    }
}

fn main() -> int {
    let _1 as ch: Channel<int>;
    let _2 as h: JoinHandle<unit>;
    let _3: unit;

    bb0: {
        StorageLive(_1);
        _1 = call channel::unbounded() -> bb1;
    }

    bb1: {
        StorageLive(_2);
        _2 = call thread::spawn(const fn producer, _1) -> bb2;
    }

    bb2: {
        _0 = call channel::recv(_1) -> bb3;
    }

    bb3: {
        StorageLive(_3);
        _3 = call thread::join(_2) -> bb4;
    }

    bb4: {
        return;
    }
}
"#,
        );
        assert!(out.fault.is_none(), "{out:?}");
        assert_eq!(out.return_int(), Some(99));
    }

    #[test]
    fn recv_on_silent_channel_deadlocks() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as ch: Channel<int>;

    bb0: {
        StorageLive(_1);
        _1 = call channel::unbounded() -> bb1;
    }

    bb1: {
        _0 = call channel::recv(_1) -> bb2;
    }

    bb2: {
        return;
    }
}
"#,
        );
        assert!(out.deadlocked(), "{out:?}");
    }

    #[test]
    fn unsynchronized_counter_races() {
        let out = run_src(
            r#"
fn bump(_1 as p: *mut int) -> unit {
    bb0: {
        unsafe (*_1) = (*_1) + const 1;
        return;
    }
}

fn main() -> int {
    let _1 as x: int;
    let _2 as p: *mut int;
    let _3 as h1: JoinHandle<unit>;
    let _4 as h2: JoinHandle<unit>;
    let _5: unit;

    bb0: {
        StorageLive(_1);
        _1 = const 0;
        StorageLive(_2);
        _2 = &raw mut _1;
        StorageLive(_3);
        _3 = call thread::spawn(const fn bump, _2) -> bb1;
    }

    bb1: {
        StorageLive(_4);
        _4 = call thread::spawn(const fn bump, _2) -> bb2;
    }

    bb2: {
        StorageLive(_5);
        _5 = call thread::join(_3) -> bb3;
    }

    bb3: {
        _5 = call thread::join(_4) -> bb4;
    }

    bb4: {
        _0 = _1;
        return;
    }
}
"#,
        );
        assert!(!out.races.is_empty(), "expected a race: {out:?}");
    }

    #[test]
    fn arc_refcount_keeps_value_alive_until_last_drop() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as a1: Arc<int>;
    let _2 as a2: Arc<int>;

    bb0: {
        StorageLive(_1);
        _1 = call arc::new(const 5) -> bb1;
    }

    bb1: {
        StorageLive(_2);
        _2 = call arc::clone(_1) -> bb2;
    }

    bb2: {
        drop(_1) -> bb3;
    }

    bb3: {
        _0 = (*_2);
        drop(_2) -> bb4;
    }

    bb4: {
        return;
    }
}
"#,
        );
        assert!(out.is_clean(), "{out:?}");
        assert_eq!(out.return_int(), Some(5));
    }

    #[test]
    fn use_of_arc_after_last_drop_faults() {
        let out = run_src(
            r#"
fn main() -> int {
    let _1 as a1: Arc<int>;
    let _2 as a2: Arc<int>;

    bb0: {
        StorageLive(_1);
        _1 = call arc::new(const 5) -> bb1;
    }

    bb1: {
        StorageLive(_2);
        _2 = _1;
        drop(_2) -> bb2;
    }

    bb2: {
        _0 = (*_1);
        return;
    }
}
"#,
        );
        assert!(
            matches!(out.memory_fault(), Some(MemoryFault::UseAfterFree(_))),
            "{out:?}"
        );
    }

    #[test]
    fn double_drop_of_duplicated_arc_faults() {
        let out = run_src(
            r#"
fn main() -> unit {
    let _1 as a1: Arc<int>;
    let _2 as a2: Arc<int>;
    let _3 as r: *const Arc<int>;

    bb0: {
        StorageLive(_1);
        _1 = call arc::new(const 1) -> bb1;
    }

    bb1: {
        StorageLive(_3);
        _3 = &raw const _1;
        StorageLive(_2);
        unsafe _2 = call ptr::read(_3) -> bb2;
    }

    bb2: {
        drop(_2) -> bb3;
    }

    bb3: {
        drop(_1) -> bb4;
    }

    bb4: {
        return;
    }
}
"#,
        );
        assert!(
            matches!(out.memory_fault(), Some(MemoryFault::DoubleDrop(_))),
            "{out:?}"
        );
    }

    #[test]
    fn leaked_heap_is_counted() {
        let out = run_src(
            r#"
fn main() -> unit {
    let _1 as p: *mut int;

    bb0: {
        StorageLive(_1);
        _1 = call alloc(const 3) -> bb1;
    }

    bb1: {
        return;
    }
}
"#,
        );
        assert_eq!(out.leaked_heap_blocks, 1);
    }
}
