fn collect(&mut self, ctx: &mut Context, from: NodeId) {
    if self.pool.len() < self.k {
        ctx.send(from, Message::RetrieveReply { ov });
    }
}
