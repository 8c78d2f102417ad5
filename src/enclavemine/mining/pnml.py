"""Deterministic PNML serialization for workflow nets.

The writer emits elements in sorted id order with fixed formatting, so equal
nets serialize to equal bytes. The source place carries an initial marking
of one token.
"""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

from .heuristics import WorkflowNet

__all__ = ["to_pnml"]

_PNML_NS = "http://www.pnml.org/version-2009/grammar/pnml"
_NET_TYPE = "http://www.pnml.org/version-2009/grammar/ptnet"


def to_pnml(net: WorkflowNet) -> bytes:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<pnml xmlns=%s>' % quoteattr(_PNML_NS),
        '  <net id="net1" type=%s>' % quoteattr(_NET_TYPE),
        '    <page id="page1">',
    ]
    for pid in sorted(net.places):
        lines.append('      <place id=%s>' % quoteattr(pid))
        lines.append('        <name><text>%s</text></name>' % escape(pid))
        if pid == net.source:
            lines.append('        <initialMarking><text>1</text></initialMarking>')
        lines.append('      </place>')
    for t in sorted(net.transitions, key=lambda t: t.tid):
        lines.append('      <transition id=%s>' % quoteattr(t.tid))
        if t.label is not None:
            lines.append('        <name><text>%s</text></name>' % escape(t.label))
        lines.append('      </transition>')
    for n, (src, dst) in enumerate(sorted(net.arcs), start=1):
        lines.append(
            '      <arc id=%s source=%s target=%s/>'
            % (quoteattr("a%d" % n), quoteattr(src), quoteattr(dst))
        )
    lines.extend(['    </page>', '  </net>', '</pnml>', ''])
    return "\n".join(lines).encode("utf-8")
