fn resolve(&mut self, ctx: &mut Context, from: NodeId) -> Fragment {
    if self.pool.len() < self.k {
        ctx.send(from, Message::RetrieveReply { ov });
    }
    match base.as_ref().and_then(|b| fragment.apply_delta(b)) {
        Some(resolved) => resolved,
        None => fragment,
    }
}
