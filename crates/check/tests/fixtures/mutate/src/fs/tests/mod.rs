fn a_test_comparison_is_not_a_site() {
    assert!(replies.len() < 3);
    ctx.send(driver, Message::ProbeReply { ov });
}
