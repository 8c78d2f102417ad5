"""Deterministic PNML serialization for workflow nets.

The writer emits elements in sorted id order with fixed formatting, so equal
nets serialize to equal bytes. The source place carries an initial marking
of one token.

Text is escaped by the rules of ``xml.sax.saxutils``, byte for byte:
element text maps ``&``, ``<`` and ``>`` to entities; an attribute value
also maps newline, carriage return and tab to ``&#10;``, ``&#13;`` and
``&#9;``, and is quoted with ``"``, or with ``'`` when it holds ``"`` but
no ``'``, or else with ``"`` and each ``"`` written ``&quot;``. The module
is not imported because it imports ``urllib.request``, which loads
``http.client``, ``email``, ``ssl`` and ``hashlib`` into the process.
"""

from __future__ import annotations

from .heuristics import WorkflowNet

__all__ = ["to_pnml"]

_PNML_NS = "http://www.pnml.org/version-2009/grammar/pnml"
_NET_TYPE = "http://www.pnml.org/version-2009/grammar/ptnet"
_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}
)


def _escape(text: str) -> str:
    return text.translate(_TEXT)


def _quoteattr(text: str) -> str:
    text = text.translate(_ATTR)
    if '"' not in text:
        return '"%s"' % text
    if "'" not in text:
        return "'%s'" % text
    return '"%s"' % text.replace('"', "&quot;")


def to_pnml(net: WorkflowNet) -> bytes:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<pnml xmlns=%s>' % _quoteattr(_PNML_NS),
        '  <net id="net1" type=%s>' % _quoteattr(_NET_TYPE),
        '    <page id="page1">',
    ]
    for pid in sorted(net.places):
        lines.append('      <place id=%s>' % _quoteattr(pid))
        lines.append('        <name><text>%s</text></name>' % _escape(pid))
        if pid == net.source:
            lines.append('        <initialMarking><text>1</text></initialMarking>')
        lines.append('      </place>')
    for t in sorted(net.transitions, key=lambda t: t.tid):
        lines.append('      <transition id=%s>' % _quoteattr(t.tid))
        if t.label is not None:
            lines.append('        <name><text>%s</text></name>' % _escape(t.label))
        lines.append('      </transition>')
    for n, (src, dst) in enumerate(sorted(net.arcs), start=1):
        lines.append(
            '      <arc id=%s source=%s target=%s/>'
            % (_quoteattr("a%d" % n), _quoteattr(src), _quoteattr(dst))
        )
    lines.extend(['    </page>', '  </net>', '</pnml>', ''])
    return "\n".join(lines).encode("utf-8")
