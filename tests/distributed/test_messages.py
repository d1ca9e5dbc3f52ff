"""Tests for repro.distributed.messages."""

from repro.distributed.messages import LeaderDeclaration, WeightBroadcast


class TestMessages:
    def test_weight_broadcast_fields(self):
        message = WeightBroadcast(sender=3, hop_limit=5, weight=1.25)
        assert message.sender == 3
        assert message.hop_limit == 5
        assert message.weight == 1.25

    def test_leader_declaration_fields(self):
        message = LeaderDeclaration(sender=1, hop_limit=5, weight=2.0, mini_round=3)
        assert message.mini_round == 3

    def test_messages_are_immutable(self):
        message = WeightBroadcast(sender=0, hop_limit=1, weight=1.0)
        try:
            message.weight = 2.0
            mutated = True
        except AttributeError:
            mutated = False
        assert not mutated
