//! Control-flow-graph utilities: successor maps and the forward
//! iteration order.

use rstudy_mir::{BasicBlock, Body};

/// Precomputed CFG edges for a body.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BasicBlock>>,
}

impl Cfg {
    /// Builds the successor map from a body's terminators.
    pub fn new(body: &Body) -> Cfg {
        let succs = body
            .block_indices()
            .map(|bb| {
                body.block(bb)
                    .terminator
                    .as_ref()
                    .map_or_else(Vec::new, |term| term.kind.successors())
            })
            .collect();
        Cfg { succs }
    }

    /// Blocks `bb` jumps to.
    pub fn successors(&self, bb: BasicBlock) -> &[BasicBlock] {
        &self.succs[bb.index()]
    }

    /// Reverse post-order over blocks reachable from the entry (the
    /// canonical forward-dataflow iteration order).
    pub fn reverse_postorder(&self) -> Vec<BasicBlock> {
        let n = self.succs.len();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        if n == 0 {
            return order;
        }
        // Iterative DFS carrying an explicit successor cursor; blocks are
        // pushed in post-order, then reversed.
        let mut stack: Vec<(BasicBlock, usize)> = vec![(BasicBlock::ENTRY, 0)];
        visited[0] = true;
        while let Some(&mut (bb, ref mut cursor)) = stack.last_mut() {
            let succs = self.successors(bb);
            if *cursor < succs.len() {
                let next = succs[*cursor];
                *cursor += 1;
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(bb);
                stack.pop();
            }
        }
        order.reverse();
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Operand, Ty};

    /// Diamond: bb0 -> (bb1 | bb2) -> bb3.
    fn diamond() -> Body {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let (t, e) = b.branch_bool(Operand::int(1));
        let join = b.new_block();
        b.switch_to(t);
        b.goto(join);
        b.switch_to(e);
        b.goto(join);
        b.switch_to(join);
        b.ret();
        b.finish()
    }

    #[test]
    fn successors_follow_terminators() {
        let body = diamond();
        let cfg = Cfg::new(&body);
        assert_eq!(cfg.successors(BasicBlock(0)).len(), 2);
        assert_eq!(cfg.successors(BasicBlock(1)), [BasicBlock(3)]);
        assert_eq!(cfg.successors(BasicBlock(2)), [BasicBlock(3)]);
        assert!(cfg.successors(BasicBlock(3)).is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_ends_at_exit() {
        let body = diamond();
        let cfg = Cfg::new(&body);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.first(), Some(&BasicBlock(0)));
        assert_eq!(rpo.last(), Some(&BasicBlock(3)));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn unreachable_blocks_are_skipped() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        b.ret();
        let dead = b.new_block();
        b.switch_to(dead);
        b.ret();
        let body = b.finish();
        let cfg = Cfg::new(&body);
        assert_eq!(cfg.reverse_postorder(), vec![BasicBlock(0)]);
    }

    #[test]
    fn rpo_handles_loops() {
        // bb0 -> bb1 -> bb2 -> bb1 (back edge), bb2 -> bb3
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let header = b.new_block();
        b.goto(header);
        b.switch_to(header);
        let body_bb = b.new_block();
        b.goto(body_bb);
        b.switch_to(body_bb);
        let exit = b.new_block();
        b.switch_int(Operand::int(0), vec![(0, header)], exit);
        b.switch_to(exit);
        b.ret();
        let body = b.finish();
        let cfg = Cfg::new(&body);
        // The back edge does not reorder the loop: entry, header, body, exit.
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo, [BasicBlock(0), header, body_bb, exit]);
    }
}
